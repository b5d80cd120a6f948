import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
over two lines."""
import math

# a comment line
X = """a string that is
not a docstring"""   # counts as code


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return math.pi  # trailing comment

    async def g(self):
        pass
'''


def test_counts_code_lines_of_a_fixed_snippet():
    # 19 lines: 2 module-docstring, 1 comment-only, 5 blank, 1 class- and 2
    # function-docstring lines leave 8 code lines
    assert len(SNIPPET.splitlines()) == 19
    assert code_lines.code_lines(SNIPPET) == 8


def test_prints_one_line_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("# only a comment\n\nY = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    19      8 a.py", "     3      1 b.py", "    22      9 total"]


#: ``wc -l`` and code lines of src/broydenlab/*.py that no change may exceed
LINE_BUDGET, CODE_LINE_BUDGET = 2269, 1498


def test_src_stays_within_its_line_budget():
    sources = [path.read_text() for path in
               sorted((code_lines.ROOT / "src" / "broydenlab").glob("*.py"))]
    lines = sum(len(source.splitlines()) for source in sources)
    code = sum(code_lines.code_lines(source) for source in sources)
    assert lines <= LINE_BUDGET and code <= CODE_LINE_BUDGET, (
        f"src/broydenlab has {lines} lines, {code} of them code, over the "
        f"budget of {LINE_BUDGET} and {CODE_LINE_BUDGET}: pay lines back, or "
        "raise the numbers here and record that in CHANGES.md")
