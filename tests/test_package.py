import normtest
from normtest import inference

REMOVED = ("m_func", "z_n", "PsiBundle", "psi_estimators")


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from normtest import *", namespace)
    assert [name for name in normtest.__all__ if name not in namespace] == []


def test_export_list_is_unique_and_current():
    assert len(set(normtest.__all__)) == len(normtest.__all__)
    gone = [name for name in REMOVED if name in normtest.__all__ or hasattr(normtest, name) or hasattr(inference, name)]
    assert gone == []
