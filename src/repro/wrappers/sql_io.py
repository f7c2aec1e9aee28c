"""SQL (sqlite3) data wrapper and unwrapper.

The paper's first DAT sources — job-queue logs and OSIsoft PI sensor
feeds — are "continuously monitored and recorded in relational
databases", read through ``session.ingest().sql(...)``
(:mod:`repro.sources.sql_source`). This module keeps the write half:
unwrapping a derived dataset back into a sqlite3 table.
"""

from __future__ import annotations

import sqlite3

from repro.errors import WrapperError
from repro.core.dataset import ScrubJayDataset
from repro.core.dictionary import SemanticDictionary
from repro.wrappers.base import Unwrapper
from repro.wrappers.codec import encoder


class SQLUnwrapper(Unwrapper):
    """Write a dataset into a sqlite3 table (replacing it)."""

    def __init__(
        self, db_path: str, table: str, dictionary: SemanticDictionary
    ) -> None:
        self.db_path = db_path
        self.table = table
        self.dictionary = dictionary

    def save(self, dataset: ScrubJayDataset) -> str:
        fields = dataset.schema.fields()
        cols = ", ".join(f'"{f}" TEXT' for f in fields)
        placeholders = ", ".join("?" for _ in fields)
        encoders = [
            (field, encoder(dataset.schema[field], self.dictionary))
            for field in fields
        ]
        try:
            with sqlite3.connect(self.db_path) as conn:
                conn.execute(f'DROP TABLE IF EXISTS "{self.table}"')
                conn.execute(f'CREATE TABLE "{self.table}" ({cols})')
                conn.executemany(
                    f'INSERT INTO "{self.table}" VALUES ({placeholders})',
                    (
                        tuple(
                            encode(row.get(field))
                            for field, encode in encoders
                        )
                        for row in dataset.collect()
                    ),
                )
        except sqlite3.Error as exc:
            raise WrapperError(
                f"sqlite error writing {self.db_path}: {exc}"
            ) from exc
        return self.table
