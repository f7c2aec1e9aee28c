"""One error import surface: repro.errors owns the taxonomy; the old
per-subsystem paths stay importable as deprecated aliases."""

import repro
import repro.errors as errors
import repro.rdd as rdd
import repro.serve as serve


def test_rdd_errors_are_reexports():
    assert rdd.ExecutorError is errors.ExecutorError
    assert rdd.ShuffleKeyError is errors.ShuffleKeyError


def test_serve_errors_are_reexports():
    assert serve.ServiceError is errors.ServiceError
    assert serve.ServiceOverloadError is errors.ServiceOverloadError
    assert serve.QueryTimeoutError is errors.QueryTimeoutError
    assert serve.QueryCancelledError is errors.QueryCancelledError
    assert serve.ServiceClosedError is errors.ServiceClosedError


def test_top_level_exports():
    assert repro.QueryTimeoutError is errors.QueryTimeoutError
    assert repro.ServiceOverloadError is errors.ServiceOverloadError
    assert repro.SourceError is errors.SourceError
    assert repro.WrapperError is errors.WrapperError


def test_hierarchy():
    assert issubclass(errors.SourceError, errors.WrapperError)
    assert issubclass(errors.WrapperError, errors.ScrubJayError)
    assert issubclass(errors.ServiceOverloadError, errors.ServiceError)


def test_errors_all_covers_everything_public():
    public = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert public == set(errors.__all__)
