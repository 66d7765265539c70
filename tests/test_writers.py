"""Each piece of kept agent state has its named writers in the package.

The engine keeps tallies (`compartment_totals`, `live_members`,
`occupancy`), the source mask and the susceptible list current as it
writes compartments. `transmissibility` is derived once per episode and
is the only record of each dose's effect, and the house ledgers are
posted only by the economy. Code that wrote any of them anywhere else
would leave them stale or wrong without a word. `place`, `house_head`
and `head_commutes` are built and frozen by synthesis, and the per-move
and per-day steps read them as fixed. So this walks the package's source
and finds every write
to those attributes: an assignment, whole or subscripted, plain or
augmented, numpy's in-place writes through a call (`out=`, `np.copyto`,
a ufunc's `.at`, `.fill`, `.put`, `.sort`), also into a view made by a
method call such as `.ravel()`, and a change of the `writeable` flag.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epidemictrl"

#: Kept attribute -> the only functions (module.qualname) that may write it.
WRITERS = {
    "compartment": {"epidemic._enter"},
    "due_tick": {"epidemic._enter"},
    "compartment_totals": {"epidemic._enter"},
    "live_members": {"epidemic._enter"},
    "is_source": {"epidemic._enter"},
    "occupancy": {"epidemic._enter"},
    "susceptible_ids": {"epidemic._enter"},
    "place": {"world.synthesize_population"},
    "house_head": {"world.synthesize_population"},
    "head_commutes": {"world.synthesize_population"},
    "vaccinated": {"interventions.apply_vaccine_effects"},
    "transmissibility": {"env.run_episode", "interventions.apply_vaccine_effects"},
    "savings_cents": {"economy.init_house_ledgers", "economy.economy_day_step"},
    "income_cents": {"economy.init_house_ledgers"},
}


def _written_attributes(target: ast.expr):
    """Attribute names an assignment target writes, whole or subscripted."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written_attributes(element)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from _written_attributes(target.value)
    elif isinstance(target, ast.Call) and isinstance(target.func, ast.Attribute):
        yield from _written_attributes(target.func.value)  # a view, e.g. .ravel()
    elif isinstance(target, ast.Attribute):
        if target.attr == "writeable" and isinstance(target.value, ast.Attribute):
            if target.value.attr == "flags":
                yield from _written_attributes(target.value.value)
                return
        yield target.attr


def _call_targets(call: ast.Call) -> list[ast.expr]:
    """The arrays a numpy call writes into."""
    targets = [kw.value for kw in call.keywords if kw.arg == "out"]
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("at", "copyto") and call.args:
            targets.append(call.args[0])
        elif func.attr in ("fill", "put", "sort"):
            targets.append(func.value)
    return targets


def attribute_writes(source: str, module: str) -> list[tuple[str, str]]:
    """(attribute, writing scope) for every write to an attribute in a
    module's source; a nested function is a scope of its own."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Assign):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif isinstance(child, ast.Call):
                targets = _call_targets(child)
            else:
                targets = []
            for target in targets:
                for attr in _written_attributes(target):
                    found.append((attr, ".".join([module, *scope])))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_kept_agent_state_has_one_writer():
    writers = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for attr, scope in attribute_writes(path.read_text(), path.stem):
            if attr in WRITERS:
                writers[attr].add(scope)
    # every kept attribute is written, and only by its writers
    assert dict(writers) == WRITERS


def test_writes_are_found_in_every_form_and_scope():
    source = """
def step(world, ids):
    world.compartment[ids] = 3
    world.live_members -= 1
    world.vaccinated[:], (other.due_tick, *rest) = a, b
    totals = world.compartment_totals
    totals[0] += 1
    np.less(world.age, 3, out=world.scratch_masks[0])
    np.copyto(world.transmissibility, 1.0, where=mask)

    def inner():
        world.compartment_totals[0] += 1
        np.subtract.at(world.live_members, houses, 1)
        world.due_tick.fill(-1)
        np.add.at(world.occupancy.ravel(), seats, 1)
        world.place.flags.writeable = True

class Holder:
    def reset(self):
        self.income_cents: object = None
        self.compartment.put(ids, 0)
        self.age.take(ids, out=self.compartment)
"""
    assert sorted(attribute_writes(source, "m")) == [
        ("compartment", "m.Holder.reset"),
        ("compartment", "m.Holder.reset"),
        ("compartment", "m.step"),
        ("compartment_totals", "m.step.inner"),
        ("due_tick", "m.step"),
        ("due_tick", "m.step.inner"),
        ("income_cents", "m.Holder.reset"),
        ("live_members", "m.step"),
        ("live_members", "m.step.inner"),
        ("occupancy", "m.step.inner"),
        ("place", "m.step.inner"),
        ("scratch_masks", "m.step"),
        ("transmissibility", "m.step"),
        ("vaccinated", "m.step"),
    ]
