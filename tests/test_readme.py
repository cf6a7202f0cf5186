"""The README's Python examples, run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples():
    # doctest on the whole file would read each closing fence as output
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    globs: dict = {}
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, globs, f"README block {i}", str(README), 0))
    result = runner.summarize(verbose=False)
    assert result.failed == 0
    # among them, the reprs that ring results must keep: the generator
    # order of a product and the empty dpart of a product of infinitesimals
    assert result.attempted >= 10
    text = "".join(blocks)
    assert "dpart={'e:2': 2.0, 'e:1': 3.0}" in text and "dpart={})" in text
