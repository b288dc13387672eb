import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from telecert import reporting, simulator

#: Characters a fuzzed string is drawn from: ASCII, the characters json
#: escapes, control characters, non-ASCII text inside and beyond the BMP,
#: and lone surrogates.
CHARACTERS = list("az09 /'") + ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "中", " ", "😀", "\ud800", "\udfff"]

#: Floats whose renderings differ most: signed zeros, the extremes, the
#: non-finite values and numbers at the switch to exponent notation.
FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          math.inf, -math.inf, math.nan, 1e16, 1e-7, 0.1, 1e22, 123456789.0]


def fuzz_string(rng):
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))


def fuzz_scalar(rng):
    kind = rng.randrange(8)
    if kind == 0:  # any bit pattern: NaNs, infinities, subnormals
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if kind == 1:
        return rng.choice(FLOATS)
    if kind == 2:
        return rng.uniform(-1e3, 1e3)
    if kind == 3:  # up to 20 digits
        return rng.randrange(-(10**20), 10**20)
    if kind == 4:
        return rng.choice([True, False, None, 0, 1, -1])
    if kind == 5:
        return np.float64(rng.choice(FLOATS))
    return fuzz_string(rng)


def fuzz_key(rng):
    """Mostly strings; the rest are the non-string keys json converts."""
    if rng.random() < 0.9:
        return fuzz_string(rng)
    return rng.choice([0, 7, -3, 2.5, math.inf, math.nan, True, False, None])


def fuzz_value(rng, depth=0):
    kind = rng.randrange(10) if depth < 4 else 0
    if kind <= 3:
        return fuzz_scalar(rng)
    size = rng.randrange(5)
    if kind == 4:
        return {fuzz_key(rng): fuzz_value(rng, depth + 1) for _ in range(size)}
    if kind == 5:
        return {fuzz_string(rng): fuzz_value(rng, depth + 1) for _ in range(size)}
    if kind == 6:
        return tuple(fuzz_value(rng, depth + 1) for _ in range(size))
    if kind == 7:  # the shape of a histogram or a tally row
        return [rng.randrange(-(10**20), 10**20) for _ in range(size)]
    return [fuzz_value(rng, depth + 1) for _ in range(size)]


def fuzz_document(rng):
    return {fuzz_string(rng): fuzz_value(rng) for _ in range(rng.randrange(1, 6))}


class TestRender:
    """``_render`` writes exactly what ``json.dumps(value, indent=2)`` writes."""

    def test_fuzzed_documents(self):
        rng = random.Random(20260)
        for _ in range(6000):
            doc = fuzz_document(rng)
            assert reporting._render(doc, "") == json.dumps(doc, indent=2), repr(doc)

    @pytest.mark.parametrize(
        "value",
        [
            {}, [], (), {"a": {}}, {"a": []}, [[], {}, ()],
            {"a": [1, 2, 3]}, [[1, 2], [3, 4]], [True, 1], [1, 1.0], [1, None],
            {1: "int key"}, {"a": {2.5: 1, None: 2, True: 3}}, {"a": ("t", [1])},
            {"nan": math.nan, "inf": [math.inf, -math.inf]}, {"z": -0.0, "tiny": 5e-324},
            {"np": np.float64(0.1), "big": 10**19 + 1, "neg": -(10**19)},
            {"text": "é中😀\ud800\x00\"\\/ "}, "\udfff", 3, 0.5, None, False,
        ],
    )
    def test_chosen_values(self, value):
        assert reporting._render(value, "") == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [np.int64(3), {"a": [1, np.int64(3)]}, [object()], {"s": {1, 2}}])
    def test_values_json_refuses_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            reporting._render(value, "")


class TestRecordsDocument:
    def test_matches_json_dumps_of_the_manifest_as_a_dict(self):
        rng = random.Random(7)
        for _ in range(300):
            parameters = {fuzz_string(rng): fuzz_value(rng) for _ in range(rng.randrange(4))}
            manifest = reporting.make_manifest("simulate", parameters, seed=rng.getrandbits(64))
            payload = fuzz_document(rng)
            want = json.dumps({"manifest": manifest, **payload}, indent=2) + "\n"
            assert reporting.records_document(manifest, payload) == want


class TestManifest:
    def test_names_the_bit_generator_without_building_one(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("make_manifest built a bit generator")

        monkeypatch.setattr(np.random, "Philox", refuse)
        assert reporting.make_manifest("scenarios", {})["bit_generator"] == "Philox"

    def test_bit_generator_is_the_one_stream_builds(self):
        assert type(simulator.stream(0).bit_generator).__name__ == simulator.BIT_GENERATOR

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random on first use; a manifest must not need it,
        # or every process start pays for it before its first request.
        code = (
            "import sys, numpy\n"
            "if 'numpy.random' in sys.modules: sys.exit(3)\n"
            "import telecert.cli\n"
            "from telecert import reporting\n"
            "assert reporting.make_manifest('scenarios', {})['bit_generator'] == 'Philox'\n"
            "sys.exit(1 if 'numpy.random' in sys.modules else 0)\n"
        )
        src = str(Path(reporting.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
        if proc.returncode == 3:
            pytest.skip("this numpy imports numpy.random eagerly")
        assert proc.returncode == 0
