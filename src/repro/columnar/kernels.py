"""Removed with the columnar layer (see :mod:`repro.columnar`)."""
# anchor for the WRAP_TABLE row ("repro.columnar.kernels", "*"): no
# public function, so the row wraps nothing
