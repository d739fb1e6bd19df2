import importlib

import pytest

import relocsplit

RESULT_RECORDS = [
    ("diagnostics", "BoundReport"),
    ("diagnostics", "RateEstimate"),
    ("diagnostics", "RateTheoremResult"),
    ("dr", "FixDecomposition"),
    ("dr", "PrimalDualSequences"),
    ("family", "GammaLipschitzProbe"),
    ("mt", "MTLipschitzConstants"),
    ("mt", "MTZeroCertificate"),
]


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from relocsplit import *", namespace)
    assert [name for name in relocsplit.__all__ if name not in namespace] == []
    assert len(set(relocsplit.__all__)) == len(relocsplit.__all__)


@pytest.mark.parametrize("module, name", RESULT_RECORDS, ids=[name for _, name in RESULT_RECORDS])
def test_result_records_stay_in_their_modules(module, name):
    # the package exports what callers use; the records its functions return live in their modules
    assert name not in relocsplit.__all__
    assert isinstance(getattr(importlib.import_module(f"relocsplit.{module}"), name), type)
