"""CSV unwrapper.

The most common interchange format in the paper's workflows:
derivation results are unwrapped "into a tabular file for analysis".
Cells are encoded according to the field semantics (see
:mod:`repro.wrappers.codec`). Reading CSVs goes through
``session.ingest().csv(...)`` (:mod:`repro.sources.csv_source`).
"""

from __future__ import annotations

import csv

from repro.errors import WrapperError
from repro.core.dataset import ScrubJayDataset
from repro.core.dictionary import SemanticDictionary
from repro.wrappers.base import Unwrapper
from repro.wrappers.codec import encoder


class CSVUnwrapper(Unwrapper):
    """Write a dataset to a CSV file (header = schema fields)."""

    def __init__(self, path: str, dictionary: SemanticDictionary) -> None:
        self.path = path
        self.dictionary = dictionary

    def save(self, dataset: ScrubJayDataset) -> str:
        fields = dataset.schema.fields()
        encoders = [
            (field, encoder(dataset.schema[field], self.dictionary))
            for field in fields
        ]
        try:
            with open(self.path, "w", newline="", encoding="utf-8") as f:
                writer = csv.writer(f)
                writer.writerow(fields)
                for row in dataset.collect():
                    writer.writerow(
                        [encode(row.get(field)) for field, encode in encoders]
                    )
        except OSError as exc:
            raise WrapperError(f"cannot write {self.path}: {exc}") from exc
        return self.path
