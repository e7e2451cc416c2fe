"""Every function that `perfbench/tracer.py` wraps exists in the library,
so a refactor that renames or removes one fails here rather than leaving
its per-layer metrics reading 0."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# targets whose functions were deleted before this test; the tracer lists
# them as missing until its target list drops them
DELETED = {
    "finglq.MatrixGroup.precompute_inverses",
    "charformula.unramified_character_rhs",
    "charformula.ramified_prefactor",
    "charformula.epsilon_cross_check",
    "charformula.volume_is_poincare",
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # resolved as the tracer resolves them, and callable, so that its
    # wrapper can stand in for them
    tracer = load_tracer()
    missing = set()
    for module_name, path, _hot in tracer.TARGETS:
        module = importlib.import_module(f"hecke_forge.{module_name}")
        owner, attr = tracer._resolve(module, path)
        found = getattr(owner, "__dict__", {}).get(attr)
        if found is None:
            missing.add(f"{module_name}.{path}")
        else:
            assert callable(found), f"{module_name}.{path}"
    assert missing <= DELETED, sorted(missing - DELETED)


def test_verify_checks_match_the_registry_one_to_one():
    # each `verify.<name>_s` metric times `verify.check_<name>`; a check
    # renamed or added on one side only would leave its metric at 0
    from hecke_forge import verify
    names = [fn.__name__ for fn in verify.ALL_CHECKS]
    wanted = [f"check_{name}" for name in load_tracer().VERIFY_CHECKS]
    assert len(set(names)) == len(names)
    assert len(set(wanted)) == len(wanted)
    assert sorted(wanted) == sorted(names)
