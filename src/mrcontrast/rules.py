"""Value rules shared by the CLI flag types, `RunConfig`, `ModelConfig`, the
label configs and the record, dataset and checkpoint readers. A rule returns
its value or raises `error` (ValueError by default) naming the value. Ints
exclude bools and floats must be floats, so a value that passes round-trips
through JSON unchanged."""
from __future__ import annotations

import sys
from dataclasses import fields
from math import inf


def _rule(test, wants: str):
    def check(value, name: str = "value", error: type[Exception] = ValueError):
        if not test(value):
            raise error(f"{name} must be {wants}, got {value!r}")
        return value

    return check


def _int_in(low: int, high: float = inf):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and low <= v <= high


positive_int = _rule(_int_in(1), "an int of at least 1")
non_negative_int = _rule(_int_in(0), "an int of at least 0")
int64 = _rule(_int_in(-(2**63), 2**63 - 1), "an int that fits in int64")
float_range_int = _rule(_int_in(0, int(sys.float_info.max)), "an int in [0, largest float]")
float_range_count = _rule(_int_in(1, int(sys.float_info.max)), "an int in [1, largest float]")
finite_number = _rule(lambda v: isinstance(v, float) and -inf < v < inf
                      or _int_in(-int(sys.float_info.max), int(sys.float_info.max))(v),
                      "a finite int or float")
non_negative_float = _rule(lambda v: isinstance(v, float) and 0 <= v < inf, "a float in [0, inf)")
positive_float = _rule(lambda v: isinstance(v, float) and 0 < v < inf, "a float in (0, inf)")
fraction = _rule(lambda v: isinstance(v, float) and 0 <= v <= 1, "a float in [0, 1]")
boolean = _rule(lambda v: isinstance(v, bool), "true or false")
string = _rule(lambda v: isinstance(v, str), "a string")


def one_of(names: tuple[str, ...]):
    return _rule(lambda v: isinstance(v, str) and v in names, f"one of {', '.join(names)}")


def ordered_subset(names: tuple[str, ...], required: tuple[str, ...] = ()):
    return _rule(lambda v: isinstance(v, tuple) and list(v) == [n for n in names if n in v]
                 and set(required) <= set(v),
                 f"a tuple of distinct names from {', '.join(names)}, in that order"
                 + (f", including {' and '.join(required)}" if required else ""))


def instance_of(cls: type):
    return _rule(lambda v: isinstance(v, cls), f"a {cls.__name__}")


def check_fields(config, rules: dict) -> None:
    """Apply every dataclass field's rule to the field; a ValueError names it."""
    for f in fields(config):
        rules[f.name](getattr(config, f.name), f.name)
