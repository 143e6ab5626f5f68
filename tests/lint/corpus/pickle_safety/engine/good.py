"""Known-good: module-level functions cross the fan-out boundary."""

from repro.engine._pool import FanOutSpec


def module_compute(chunk: list, state: object) -> dict:
    return {"chunk": chunk, "state": state}


def module_setup(state: object) -> object:
    return state


SPEC = FanOutSpec(compute=module_compute, setup=module_setup)
BARE = FanOutSpec(module_compute, None)
