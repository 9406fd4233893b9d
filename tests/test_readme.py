"""README's tool list: the ``sh`` block of "Install and test" names exactly the scripts in ``tests/data``."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_the_install_block_names_every_tool_in_tests_data():
    section = (ROOT / "README.md").read_text().split("## Install and test", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"tests/data/(\w+\.py)", block))
    assert named == {p.name for p in (ROOT / "tests" / "data").glob("*.py")}
