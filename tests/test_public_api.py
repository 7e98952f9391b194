"""Public API surface checks: every exported name resolves, docstrings
exist on public items, and the top-level package re-exports what the
README promises."""

import importlib
import inspect
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.precision",
    "repro.gpu",
    "repro.kernels",
    "repro.core",
    "repro.baselines",
    "repro.datasets",
    "repro.metrics",
    "repro.apps",
    "repro.extensions",
    "repro.service",
]

MODULES = PACKAGES + [
    "repro.preprocessing",
    "repro.io",
    "repro.validation",
    "repro.reporting",
    "repro.experiments",
    "repro.cli",
    "repro.gpu.profiler",
    "repro.gpu.tracing",
    "repro.gpu.energy",
    "repro.gpu.occupancy",
    "repro.gpu.topology",
    "repro.core.pan",
    "repro.core.scrimp",
    "repro.core.anytime",
    "repro.core.planner",
    "repro.apps.mpdist",
    "repro.apps.snippets",
    "repro.apps.segmentation",
    "repro.apps.chains",
    "repro.apps.consensus",
    "repro.apps.annotation",
]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} has no __all__"
        for export in module.__all__:
            assert hasattr(module, export), f"{name}.{export} missing"

    @pytest.mark.parametrize("name", MODULES)
    def test_module_docstrings(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, name

    def test_top_level_promises(self):
        import repro

        for name in (
            "matrix_profile",
            "anytime_matrix_profile",
            "plan_tiles",
            "MatrixProfileResult",
            "RunConfig",
            "PrecisionMode",
            "model_multi_tile",
            "GPUSimulator",
        ):
            assert hasattr(repro, name), name

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestDocstringsOnPublicCallables:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_callables_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for export in getattr(module, "__all__", []):
            obj = getattr(module, export)
            if callable(obj) and not isinstance(obj, type(importlib)):
                doc = inspect.getdoc(obj)
                if not doc or len(doc.strip()) < 10:
                    undocumented.append(f"{name}.{export}")
        assert not undocumented, f"undocumented exports: {undocumented}"


class TestImportFootprint:
    """``import repro`` loads numpy and nothing else outside the standard
    library: every other package stays off the import path, so a clean
    install needs only the declared dependency."""

    SCRIPT = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )

    def test_only_numpy_and_repro(self):
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, check=True,
        ).stdout
        assert set(out.split()) == {"numpy", "repro"}
