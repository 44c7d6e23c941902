"""The README's quick start runs as printed and reports the SNR it states, and
its config example is a valid config."""

import contextlib
import io
import json
import os
import re

from reconkit.cli import config_from_dict

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_quick_start_reports_the_stated_snr():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    stated = float(re.search(r"# about (\d+(?:\.\d+)?) dB", block).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    measured = float(re.fullmatch(r"snr (-?\d+\.\d) dB\n", out.getvalue()).group(1))
    # "about 13 dB" holds for anything that rounds to 13
    assert abs(measured - stated) <= 0.5, (measured, stated)


def test_config_example_passes_the_config_check():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    (block,) = re.findall(r"```json\n(.*?)```", text, flags=re.S)
    config_from_dict(json.loads(block))
