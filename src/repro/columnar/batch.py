"""Removed with the columnar layer (see :mod:`repro.columnar`)."""


class ColumnBatch:
    # anchor for WRAP_TABLE rows ColumnBatch.from_rows / ColumnBatch.to_rows
    def from_rows(*_args, **_kwargs):
        raise NotImplementedError("ColumnBatch was removed; rows are dicts")

    to_rows = from_rows
