import pytest

from spincompile import instructions


@pytest.fixture
def evolved_tables(monkeypatch):
    """The schedules of the bundled tables evolved during the test, in call
    order. The per-process caches of evolved tables and of instruction
    sets (whose gates keep their realized gates) are cleared first, so a
    test that expects none evolved cannot pass because an earlier test
    already evolved them."""
    instructions.bundled_evolution.cache_clear()
    instructions.instruction_set.cache_clear()
    calls = []
    evolve = instructions.evolve

    def counting_evolve(model, schedule):
        calls.append(schedule)
        return evolve(model, schedule)

    monkeypatch.setattr(instructions, "evolve", counting_evolve)
    return calls
