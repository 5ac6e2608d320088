"""Property: a mutated spec makes ``paralens solve`` fail cleanly or succeed.

Mutations of the bundled dilemma replace or delete any field of the decoded
spec, then splice the bytes of its JSON text.  Whatever comes out, ``main``
returns an exit code and lets no exception escape, and a spec that does not
parse exits 2.
"""

import json
from importlib import resources

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paralens.cli import load_spec_file, main, parse_game_spec
from paralens.errors import SpecFormatError

PD = json.loads(
    resources.files("paralens").joinpath("specs").joinpath("pd.json").read_text("utf-8")
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


_DELETE = object()


def _mutate(spec, path, replacement):
    if not path:
        return replacement
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    if replacement is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return spec


@st.composite
def mutated_specs(draw):
    spec = json.loads(json.dumps(PD))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(spec))))
        replacement = draw(json_values | st.just(_DELETE)) if path else draw(json_values)
        spec = _mutate(spec, path, replacement)
    data = json.dumps(spec).encode("utf-8")
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 4)))
        data = data[:i] + draw(st.binary(max_size=3)) + data[j:]
    return data


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=mutated_specs())
def test_mutated_specs_exit_cleanly(data, tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    code = main(["solve", str(path)])
    try:
        parse_game_spec(load_spec_file(str(path)))
    except SpecFormatError:
        assert code == 2
    else:
        assert code in (0, 1)
