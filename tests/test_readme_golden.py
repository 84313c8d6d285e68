"""Every CLI example in the README gives byte-identical output.

The digests are SHA-256 of each example's stdout (of the written file for
the `--out` example), recorded at commit 8655722, except `gds-dim`, whose
report changed when the spectral radius became exact. A change that alters
any report byte fails here.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from cantorvis.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

GOLDEN = {
    "classify --lambda 7/20":
        (0, "d38d63eb9d4f7d5b4991cf5386ceb5444f748c70e433cbe040fb969665565b2e"),
    "visible --lambda 7/20 --alpha 17/10 --k-window 3":
        (0, "6756ec20bcb1b828cae80bb3438993bb1f47c69e8cc0c250ee099c8f29e9ccfd"),
    "visible-set --lambda 7/20 --k-window 1 --format svg --out gaps.svg":
        (0, "8e1ca9989cf3adf37dc47ad97c6f43c6d9f89f88b02a7fe83460d08e77957d65"),
    "quotient-cover --lambda 1/5 --depth 4 --format csv":
        (0, "e091a228b6368c1d126386c2e4abf9883b0a61e003caf593b597db7fffcf877f"),
    "key2-check --lambda 1/3":
        (0, "5f5ee53d92ea7459b7ddb07a228765c971adc928296443f8a36784c273a4dcd9"),
    "thickness --lambda 3/10":
        (0, "2e94f9075100f360386f144b615945cf6fc6b9b2f2541e565cc834d754fa15c9"),
    "boxdim --lambda 1/5 --family quotient --n-min 2 --n-max 7":
        (0, "0c4433e269ead02f7b7b05c1d17693be8f6cf6f87d218366d7fd001bf024c50f"),
    "project --lambda 1/3 --slope-t 1/2":
        (0, "d7f2f4b8b1e68f3df11a12fdef5762159c8c52c8a9c20f4046cc4a6a2c8b5ae6"),
    "orbits --lambda 1/3 --slope-t 1/2 --point=-1/6":
        (0, "20d6b261981aa42b6dcba895d3f66c79380d239d7b440b8efc93bdbef97ea9bb"),
    "prop1 --lambda 1/3 --slope-t 1/2":
        (0, "fb193c1773532a2dbd8ae7d884299917ce1c407245ce0396410fdd3db80b6b33"),
    "prop2 --lambda 1/3 --slope-t 1/2":
        (0, "34160b26492327c67b3fb4d6ba6554893e541dd455ea62871dc6e233fbdd6237"),
    "gds --lambda 1/3 --slope-t 1/2 --format dot":
        (0, "947c4d0b491caa8dc898807b96f2d8d7cd4cb78a30efddbb1bd0a3ff5b483907"),
    "gds-dim --lambda 1/3 --slope-t 1/2":
        (0, "ef4f14964a7b080139ba3d00811e2bf83b134778227de807d3c546c2cf34fc52"),
    "codings --lambda 1/3 --slope-t 1/2 --point=-1/6 --depth 8":
        (0, "670d97edd071511b1329cd44684a58e2a696b4c88cd3cc43ba81c38cfb24d2bf"),
    "slice-count --lambda 1/3 --slope-t 1/2 --point=-1/6 --depth 8":
        (0, "28f551be0be646b638febc971895243d6322de228c97c1732f1173eea19fa2d1"),
}


def readme_examples() -> list[str]:
    """The `cantorvis ...` lines of the README, without the program name or
    trailing comments."""
    lines = re.findall(r"^cantorvis (.*)$", README.read_text(encoding="utf-8"),
                       flags=re.MULTILINE)
    return [line.split("#")[0].strip() for line in lines]


def test_every_readme_example_has_a_digest():
    assert readme_examples() == list(GOLDEN)


@pytest.mark.parametrize("example", list(GOLDEN))
def test_readme_example_output_is_unchanged(example, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(example))
    out = capsys.readouterr().out
    if "--out" in example:
        assert out == ""
        out = (tmp_path / shlex.split(example)[-1]).read_text(encoding="utf-8")
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == GOLDEN[example]
