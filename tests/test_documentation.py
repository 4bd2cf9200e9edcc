"""Documentation-coverage meta-tests.

Deliverable: doc comments on every public item. These tests walk the
package and fail on any public module, class or function (anything
exported via ``__all__``) that lacks a docstring — so documentation debt
cannot accumulate silently.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_iter_modules())


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_module_has_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_public_items_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", []):
            item = getattr(module, name, None)
            if item is None or not (
                inspect.isfunction(item) or inspect.isclass(item)
            ):
                continue  # Constants and re-exports document at the source.
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, f"{module.__name__}: {undocumented}"

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_public_dataclass_methods_documented(self, module):
        """Public methods of exported classes carry docstrings too."""
        undocumented = []
        for name in getattr(module, "__all__", []):
            item = getattr(module, name, None)
            if not inspect.isclass(item) or item.__module__ != module.__name__:
                continue
            for attr_name, attr in vars(item).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not (
                    attr.__doc__ and attr.__doc__.strip()
                ):
                    undocumented.append(f"{name}.{attr_name}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestExperimentDocumentation:
    def test_every_experiment_module_explains_its_figure(self):
        from repro.experiments import all_experiments

        for eid, func in all_experiments().items():
            module = importlib.import_module(func.__module__)
            doc = module.__doc__ or ""
            assert len(doc.strip()) > 100, f"{eid}: thin module docstring"

    def test_registry_functions_documented_via_module(self):
        from repro.experiments import all_experiments

        for eid, func in all_experiments().items():
            assert func.__module__.startswith("repro.experiments."), eid


class TestNoAmbientSwitches:
    def test_only_the_cache_dir_comes_from_the_environment(self):
        """Run-wide settings travel as arguments and in the run context;
        the one environment read is the land-mask cache's location."""
        root = Path(repro.__file__).parent
        reads = {}
        for path in sorted(root.rglob("*.py")):
            source = path.read_text()
            if re.search(r"\b(environ|getenv)\b", source):
                names = re.findall(
                    r"(?:environ\.get|getenv)\(\s*[\"'](\w+)|environ\[\s*[\"'](\w+)",
                    source,
                )
                reads[path.relative_to(root).as_posix()] = sorted(
                    a or b for a, b in names
                )
        assert reads == {"geo/landmask.py": ["REPRO_CACHE_DIR"]}
