"""Documentation consistency: files referenced by the docs must exist and
the repo layout must match what README/DESIGN describe."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_example_scripts_exist(self):
        readme = _read("README.md")
        for match in re.finditer(r"`([a-z_]+\.py)`", readme):
            name = match.group(1)
            assert (ROOT / "examples" / name).exists(), name

    def test_declared_packages_exist(self):
        readme = _read("README.md")
        for pkg in re.findall(r"repro\.(\w+) ", readme):
            assert (
                (ROOT / "src" / "repro" / pkg).exists()
                or (ROOT / "src" / "repro" / f"{pkg}.py").exists()
            ), pkg

    def test_required_files_mentioned(self):
        readme = _read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in readme


class TestDesign:
    def test_bench_references_exist(self):
        design = _read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", design):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(1)

    def test_module_map_entries_exist(self):
        design = _read("DESIGN.md")
        # Every "name.py" mentioned in the inventory block must exist
        # somewhere under src/repro.
        src = ROOT / "src" / "repro"
        existing = {p.name for p in src.rglob("*.py")}
        for match in re.finditer(r"^\s{4}(\w+\.py)", design, re.MULTILINE):
            assert match.group(1) in existing, match.group(1)

    def test_paper_check_statement_present(self):
        assert "Paper-text check" in _read("DESIGN.md")


class TestExperiments:
    def test_every_section_names_a_bench(self):
        experiments = _read("EXPERIMENTS.md")
        benches = set(re.findall(r"bench_\w+\.py", experiments))
        assert len(benches) >= 12
        for bench in benches:
            assert (ROOT / "benchmarks" / bench).exists(), bench

    def test_headline_table_present(self):
        experiments = _read("EXPERIMENTS.md")
        assert "54.0×" in experiments or "54.0x" in experiments
        assert "41.6" in experiments


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "name",
        ["architecture.md", "precision.md", "performance_model.md",
         "tutorial.md", "datasets.md", "porting.md", "faq.md"],
    )
    def test_doc_exists_and_nonempty(self, name):
        path = ROOT / "docs" / name
        assert path.exists()
        assert len(path.read_text()) > 500

    def test_tutorial_code_references_resolve(self):
        import repro
        import repro.apps as apps

        tutorial = (ROOT / "docs" / "tutorial.md").read_text()
        for name in re.findall(r"from repro import ([\w, ]+)", tutorial):
            for sym in [s.strip() for s in name.split(",")]:
                assert hasattr(repro, sym), sym
        for name in re.findall(r"from repro\.apps import \(([^)]+)\)", tutorial):
            for sym in [s.strip() for s in name.replace("\n", " ").split(",") if s.strip()]:
                assert hasattr(apps, sym), sym


class TestArchitectureSymbols:
    """Every backticked ``Class.attr`` / ``Class.attr(`` in
    docs/architecture.md names an attribute or dataclass field of a
    ``repro`` class, so a rename in ``src/`` cannot leave the doc behind."""

    REFERENCE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")
    FILE_SUFFIXES = {"md", "py", "json", "txt", "toml", "cff"}

    @staticmethod
    def _classes() -> dict[str, set[type]]:
        import importlib
        import inspect
        import pkgutil

        import repro

        classes: dict[str, set[type]] = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if inspect.isclass(obj) and obj.__module__.startswith("repro."):
                    classes.setdefault(name, set()).add(obj)
        return classes

    @staticmethod
    def _has(cls: type, attr: str) -> bool:
        return hasattr(cls, attr) or attr in getattr(cls, "__dataclass_fields__", {})

    def test_class_attribute_references_resolve(self):
        refs = {
            (cls, attr)
            for cls, attr in self.REFERENCE.findall(_read("docs/architecture.md"))
            if attr not in self.FILE_SUFFIXES  # file names such as DESIGN.md
        }
        assert len(refs) >= 25
        classes = self._classes()
        missing = sorted(
            f"{cls}.{attr}"
            for cls, attr in refs
            if not any(self._has(c, attr) for c in classes.get(cls, ()))
        )
        assert not missing, missing


class TestPackaging:
    def test_license_and_citation(self):
        assert (ROOT / "LICENSE").exists()
        assert "MIT" in _read("LICENSE")
        citation = _read("CITATION.cff")
        assert "10.1109/IPDPS53621.2022.00021" in citation

    def test_pyproject_entry_point(self):
        pyproject = _read("pyproject.toml")
        assert 'repro = "repro.cli:main"' in pyproject
