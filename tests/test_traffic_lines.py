"""The line collector of ``tools/traffic_lines.py`` on a module of a few
lines; the program's full traffic is too slow to trace here."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "traffic_lines.py"
_spec = importlib.util.spec_from_file_location("traffic_lines", TOOL)
traffic_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic_lines)

TINY = '''\
def used(x):
    """Only ever called with a true ``x``."""
    if x:
        return "yes"
    return "no"


class Box:
    def unused(self):
        return 1
'''


def test_collector_reports_an_untaken_branch_and_an_uncalled_method(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "tiny.py").write_text(TINY)

    def drive():
        spec = importlib.util.spec_from_file_location("tiny", src / "tiny.py")
        tiny = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tiny)
        assert tiny.used(True) == "yes"

    assert traffic_lines.collect(src, drive) == {
        "missed": {"tiny": {"used": [5], "Box.unused": [10]}},
        "never_entered": {"tiny": ["Box.unused"]},
    }
