"""``tools/work.py --functions N``: the table of each REF's top functions.

The counting itself needs Python 3.12 and an exported tree, so it is not
run here; the table is built from a hand-made ``Counter`` of own
instructions by label, and the labels from hand-made paths.
"""

import importlib.util
from collections import Counter
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "work.py"
_spec = importlib.util.spec_from_file_location("work", TOOL)
work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work)


def test_the_table_ranks_functions_by_own_instructions_per_op():
    functions = Counter({
        "fractions.py:Fraction.__new__": 300,
        "src/pmgraph/io.py:parse_graph": 1200,
        "b.py:g": 50,
        "a.py:f": 50,
        "c.py:h": 400,
    })
    assert work.function_table(functions, 10, 4) == [
        "     instructions/op   share  function",
        "               120.0   60.0%  src/pmgraph/io.py:parse_graph",
        "                40.0   20.0%  c.py:h",
        "                30.0   15.0%  fractions.py:Fraction.__new__",
        "                 5.0    2.5%  a.py:f",  # a tie goes by label
    ]


def test_the_table_shares_are_of_every_function_counted():
    functions = Counter({"a.py:f": 3, "b.py:g": 1})
    assert work.function_table(functions, 1, 1)[1:] == ["                 3.0   75.0%  a.py:f"]
    assert work.function_table(functions, 1, 5)[2:] == ["                 1.0   25.0%  b.py:g"]


def test_a_label_is_relative_to_the_export_or_a_base_name(tmp_path):
    inside = tmp_path / "src" / "pmgraph" / "graph.py"
    assert work._label(tmp_path, str(inside), "validate") == "src/pmgraph/graph.py:validate"
    outside = "/usr/lib/python3.12/fractions.py"
    assert work._label(tmp_path, outside, "Fraction.__new__") == "fractions.py:Fraction.__new__"
    assert work._label(tmp_path, "<string>", "__create_fn__.<locals>.__init__") == (
        "<string>:__create_fn__.<locals>.__init__"
    )


def test_code_objects_of_one_label_add_up(tmp_path):
    first, second = (lambda: 1), (lambda: 2)
    codes = Counter({first.__code__: 5, second.__code__: 2})
    assert work._result(tmp_path, 2, 0, codes) == {
        "ops": 2, "instructions": 7, "functions": {f"test_work_tool.py:{first.__qualname__}": 7},
    }
    assert work._result(tmp_path, 2, 9, Counter()) == {"ops": 2, "instructions": 9}
