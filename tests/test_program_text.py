"""The text of the generated jet programs, pinned.

`expr._Writer` writes one Python function per tape shape.  Its text fixes
every operation a jet takes, so a change to the writer that keeps the
text keeps every jet's bits, and the time it takes to write and compile
the programs (the benchmark's `setup_s`).  This test hashes the text
written for the joint expression of every gallery front and plane-gallery
front and for the path of every gallery loop, each at its default
parameters.  After a deliberate change to the programs, print the new
table with

    PYTHONPATH=src python tests/test_program_text.py

and replace `PINNED`.
"""

import hashlib

import pytest

from frontlab import expr
from frontlab.gallery import gallery, gallery_names
from frontlab.zigzag import loop_gallery, loop_gallery_names, plane_gallery, plane_gallery_names


def _expressions():
    out = {f"front {name}": gallery(name).joint for name in gallery_names()}
    out.update({f"plane {name}": plane_gallery(name).joint for name in plane_gallery_names()})
    out.update({f"loop {name}": loop_gallery(name)[1].path for name in loop_gallery_names()})
    return out


def program_text(e):
    """The source `_Writer` generates for the tape of `e`."""
    writer = expr._Writer(e.tape)
    writer.build()
    return writer.source()[0]


def digests():
    return {name: hashlib.sha256(program_text(e).encode()).hexdigest()
            for name, e in _expressions().items()}


PINNED = {
    "front cone": "712615c31ea7e20a82546dc4340b18b8bd15d041c54bf0c5a0b4021360fb0a32",
    "front cuspidal_parabola": "6ce3aa4bd21db1a44bcc023eb8c21a69e88b4ad19c78317240f77b7a48f3ae9e",
    "front double_swallowtail": "d9945b9acbeaa0494fa6128486856cd79bc5e81c502d6511987912a4caf6486b",
    "front ellipsoid": "21a8fc0ac4c2c84a98796cd3c46781cbf243747a56360c662ab553457dda908b",
    "front ellipsoid_parallel": "dde2cd1efa5500500e711ca95bdf1670339a24bc5948029af65cce1d0132763a",
    "front kuen": "2959f007104ef6a2af066910895e1a091337a6fdc48e28196bdd2baaf07c8e70",
    "front plane": "6afac72c1c517a1987a38586c4e8d8f06c8359b1e414ce7f9affee1afafe8742",
    "front pseudosphere": "5348ec0dc875e7c19d65b58a0e8ed3231661538d5cc1a34ca090268529013bc1",
    "front sphere": "4667b48a3212aa92caf3b7e9b7b21a0a93416738856bd0dd283bd87ccc4c0533",
    "front standard_cuspidal_edge": "cc356bf6ef4d9cbc89606c29b24cd2e042fefc600faaa769d552e9c09b2735c2",
    "front standard_swallowtail": "acacb37c58f408ea1a0658af3279ea64edd8e7f3a42cb5aa7253899fdb7da89c",
    "front swallowtail_pm": "18c0a1ac83319273bae8b0d90801e66c0e5a97a11b6cd29abcd3f2f46790d764",
    "plane circle": "5acf8d15c0484ca2eab088153548421fbbcb4fca649d9c835f0abf6e0c395458",
    "plane ellipse_parallel": "4b32ec156e99bd3c29ff064aeefbe1dd864effb7e95106ad03a647250ade4920",
    "plane rose_one_pair": "85e28ffc4caf23cf77323949528f3ac628e0a993f73337357ad81ce18d80c2f8",
    "plane rose_two_pairs": "85e28ffc4caf23cf77323949528f3ac628e0a993f73337357ad81ce18d80c2f8",
    "loop parabola_band": "3f81d68e5c153d5febff90fdd8dacc1d7b9f84d9f5f9edcc965d08eb3a8a2947",
    "loop parabola_clear": "83ca9d0d23f91ffa012f10c5e2f065ef4e0d17378e4ec0edea504035e7739c97",
    "loop pseudosphere_waist": "83ca9d0d23f91ffa012f10c5e2f065ef4e0d17378e4ec0edea504035e7739c97",
}


@pytest.fixture(scope="module")
def current():
    return digests()


def test_every_expression_is_pinned(current):
    assert sorted(current) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_program_text_unchanged(current, name):
    assert current[name] == PINNED[name]


if __name__ == "__main__":
    print("PINNED = {")
    for name, digest in digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
