"""SNR-calibrated noise injection, measurement, and the WVEC container."""

import json
import math
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalelaws as sl
from scalelaws.perturb import _LEAF as LEAF
from scalelaws.perturb import WVEC_MAGIC


def vec(values, dtype=np.float64):
    return sl.WeightVector(np.asarray(values, dtype=dtype))


class TestSignalPower:
    def test_alternating_unit_weights(self):
        assert sl.signal_power(vec([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_all_zeros(self):
        assert sl.signal_power(vec([0.0, 0.0])) == 0.0

    def test_three_four(self):
        assert sl.signal_power(vec([3.0, 4.0])) == 12.5


class TestNoiseSigma2:
    def test_zero_db(self):
        assert sl.noise_sigma2(1.0, 0.0) == 1.0

    def test_ten_db(self):
        assert sl.noise_sigma2(1.0, 10.0) == pytest.approx(0.1, rel=1e-15)

    def test_twenty_db_scaled_power(self):
        assert sl.noise_sigma2(4.0, 20.0) == pytest.approx(0.04, rel=1e-15)

    def test_power_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = float(rng.uniform(0.1, 10))
            s = float(rng.uniform(-5, 45))
            lam = float(rng.uniform(0.1, 10))
            assert sl.noise_sigma2(lam * p, s) == pytest.approx(
                lam * sl.noise_sigma2(p, s), rel=1e-15
            )

    def test_db_decade_steps(self):
        """+10 dB divides the variance by exactly 10 when the dB values
        land on exact tenths (integer-decade cases are exact in binary)."""
        for s in (0.0, 10.0, 20.0, 30.0):
            assert sl.noise_sigma2(1.0, s + 10.0) == sl.noise_sigma2(1.0, s) / 10.0
        # arbitrary values still agree to rounding
        for s in (3.7, 15.0, 22.2):
            assert sl.noise_sigma2(2.5, s + 10.0) == pytest.approx(
                sl.noise_sigma2(2.5, s) / 10.0, rel=1e-14
            )

    def test_negative_power_rejected(self):
        with pytest.raises(sl.DataValidationError):
            sl.noise_sigma2(-1.0, 10.0)


class TestInject:
    def test_huge_snr_barely_moves_weights(self):
        rng = np.random.default_rng(1)
        w = vec(rng.normal(0, 0.02, 4096))
        perturbed, report = sl.inject(w, 300.0, seed=7)
        p_w = sl.signal_power(w)
        assert np.max(np.abs(perturbed.values - w.values)) <= 1e-6 * math.sqrt(p_w)
        assert report.sigma2 == sl.noise_sigma2(p_w, 300.0)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        w = vec(rng.normal(0, 1, 1000))
        out1, rep1 = sl.inject(w, 15.0, seed=42)
        out2, rep2 = sl.inject(w, 15.0, seed=42)
        np.testing.assert_array_equal(out1.values, out2.values)
        assert rep1 == rep2
        out3, _ = sl.inject(w, 15.0, seed=43)
        assert not np.array_equal(out1.values, out3.values)

    def test_million_elements_calibrated(self):
        rng = np.random.default_rng(3)
        w = vec(rng.normal(0, 0.05, 1_000_000))
        perturbed, report = sl.inject(w, 20.0, seed=11)
        measured = sl.measure_snr(w, perturbed)
        assert abs(measured - 20.0) <= 0.2
        assert abs(report.empirical_snr_db - 20.0) <= 0.2
        # sigma2 equals the closed form bit for bit
        assert report.sigma2 == sl.noise_sigma2(sl.signal_power(w), 20.0)

    def test_zero_power_rejected(self):
        with pytest.raises(sl.DataValidationError, match="zero signal power"):
            sl.inject(vec([0.0, 0.0, 0.0]), 10.0, seed=0)

    def test_f32_round_trip_keeps_dtype(self):
        rng = np.random.default_rng(4)
        w = vec(rng.normal(0, 1, 10000).astype(np.float32), dtype=np.float32)
        perturbed, report = sl.inject(w, 10.0, seed=5)
        assert perturbed.values.dtype == np.float32
        assert perturbed.count == w.count
        assert abs(report.empirical_snr_db - 10.0) < 0.5

    def test_report_fields(self):
        w = vec([1.0, 2.0, 3.0, 4.0])
        _, report = sl.inject(w, 0.0, seed=9)
        assert report.target_snr_db == 0.0
        assert report.signal_power == 7.5
        assert report.sigma2 == 7.5  # 0 dB: noise power equals signal power
        assert report.count == 4
        assert report.seed == 9
        assert report.power_mode == "global"


class TestInjectSegmented:
    def test_lengths_must_sum(self):
        w = vec(np.ones(10))
        with pytest.raises(sl.DataValidationError):
            sl.inject_segmented(w, [4, 4], 10.0, seed=0)

    def test_per_segment_calibration(self):
        rng = np.random.default_rng(6)
        # two segments with very different scales
        w = vec(np.concatenate([rng.normal(0, 1, 50000), rng.normal(0, 10, 50000)]))
        perturbed, reports = sl.inject_segmented(w, [50000, 50000], 15.0, seed=3)
        assert len(reports) == 2
        for i, (sl_, report) in enumerate(zip((slice(0, 50000), slice(50000, None)), reports)):
            seg_orig = sl.WeightVector(w.values[sl_].copy())
            seg_pert = sl.WeightVector(perturbed.values[sl_].copy())
            assert abs(sl.measure_snr(seg_orig, seg_pert) - 15.0) <= 0.5
            assert report.power_mode == f"segment:{i}"

    def test_segment_streams_independent_of_layout(self):
        """Each segment's noise is a pure function of (seed, index)."""
        rng = np.random.default_rng(7)
        w = vec(rng.normal(0, 1, 600))
        out_a, _ = sl.inject_segmented(w, [200, 400], 12.0, seed=5)
        out_b, _ = sl.inject_segmented(w, [200, 400], 12.0, seed=5)
        np.testing.assert_array_equal(out_a.values, out_b.values)


class TestMeasureSnr:
    def test_zero_db_when_diff_power_equals_signal(self):
        original = vec([2.0, 2.0, 2.0, 2.0])
        perturbed = vec([4.0, 0.0, 4.0, 0.0])  # diff +-2, power 4 = signal power
        assert sl.measure_snr(original, perturbed) == 0.0

    def test_twenty_db_hand_case(self):
        original = vec([10.0, 10.0])
        perturbed = vec([11.0, 9.0])  # diff power 1 = signal/100
        assert sl.measure_snr(original, perturbed) == pytest.approx(20.0, rel=1e-12)

    def test_round_trip_15db(self):
        rng = np.random.default_rng(8)
        w = vec(rng.normal(0, 0.3, 1_000_000))
        perturbed, _ = sl.inject(w, 15.0, seed=21)
        assert abs(sl.measure_snr(w, perturbed) - 15.0) <= 0.2

    def test_identical_vectors_rejected(self):
        w = vec([1.0, 2.0])
        with pytest.raises(sl.DataValidationError, match="identical"):
            sl.measure_snr(w, w)

    def test_zero_signal_rejected(self):
        with pytest.raises(sl.DataValidationError, match="zero signal"):
            sl.measure_snr(vec([0.0, 0.0]), vec([1.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(sl.DataValidationError, match="lengths"):
            sl.measure_snr(vec([1.0, 2.0]), vec([1.0, 2.0, 3.0]))


class TestWeightVectorValidation:
    def test_empty_rejected(self):
        with pytest.raises(sl.DataValidationError):
            sl.WeightVector(np.array([], dtype=np.float64))

    def test_nonfinite_rejected(self):
        with pytest.raises(sl.DataValidationError):
            vec([1.0, float("inf")])

    def test_integer_dtype_rejected(self):
        with pytest.raises(sl.DataValidationError):
            sl.WeightVector(np.array([1, 2, 3]))


class TestWvecContainer:
    def test_round_trip_f64(self, tmp_path):
        rng = np.random.default_rng(9)
        w = vec(rng.normal(0, 1, 257))
        path = tmp_path / "w.wvec"
        sl.write_wvec(path, w)
        back = sl.read_wvec(path)
        assert back.dtype_code == "f64"
        np.testing.assert_array_equal(back.values, w.values)

    def test_round_trip_f32(self, tmp_path):
        rng = np.random.default_rng(10)
        w = vec(rng.normal(0, 1, 64).astype(np.float32), dtype=np.float32)
        path = tmp_path / "w.wvec"
        sl.write_wvec(path, w)
        back = sl.read_wvec(path)
        assert back.dtype_code == "f32"
        np.testing.assert_array_equal(back.values, w.values)

    def test_header_layout(self, tmp_path):
        w = vec([1.0])
        path = tmp_path / "w.wvec"
        sl.write_wvec(path, w)
        blob = path.read_bytes()
        assert blob[:4] == WVEC_MAGIC
        assert blob[4] == 1  # version
        assert blob[5] == 1  # f64 code
        assert int.from_bytes(blob[6:14], "little") == 1
        assert len(blob) == 14 + 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wvec"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(sl.DataValidationError, match="magic"):
            sl.read_wvec(path)

    def test_truncated_payload(self, tmp_path):
        w = vec([1.0, 2.0, 3.0])
        path = tmp_path / "w.wvec"
        sl.write_wvec(path, w)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(sl.DataValidationError, match="expected"):
            sl.read_wvec(path)

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        w = vec(rng.normal(0, 1, 20))
        path = tmp_path / "w.txt"
        sl.write_weights_text(path, w)
        back = sl.read_weights_text(path)
        np.testing.assert_array_equal(back.values, w.values)

    def test_text_f32_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        w = vec(rng.normal(0, 1, 20).astype(np.float32), dtype=np.float32)
        path = tmp_path / "w.txt"
        sl.write_weights_text(path, w)
        back = sl.read_weights_text(path, dtype_code="f32")
        np.testing.assert_array_equal(back.values, w.values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, LEAF, LEAF + 1])
    def test_text_bytes_match_per_value_writes(self, tmp_path, dtype, length):
        info = np.finfo(dtype)
        specials = np.array([-0.0, info.smallest_subnormal, -info.smallest_subnormal,
                             info.smallest_normal, info.max, -info.max], dtype=dtype)
        values = np.random.default_rng(length).normal(0, 1, length).astype(dtype)
        values[:len(specials)] = specials[:length]
        if length > len(specials):
            values[-len(specials):] = specials  # the last leaf's values too
        w = vec(values, dtype=dtype)
        path = tmp_path / "w.txt"
        sl.write_weights_text(path, w)
        expected = tmp_path / "expected.txt"
        with open(expected, "w", encoding="utf-8") as fh:
            for v in w.values:
                fh.write(repr(float(v)))
                fh.write("\n")
        assert path.read_bytes() == expected.read_bytes()

    def test_text_rejects_garbage(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.5\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(sl.DataValidationError, match="line 2"):
            sl.read_weights_text(path)


LENGTHS = [1, 7, 8, 129, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5]


def spread_values(n, dtype, seed=0):
    """Values over six decades, so summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * np.exp(rng.uniform(-7, 7, n))).astype(dtype)


def write_raw_wvec(path, values):
    """A WVEC file holding any values, NaN included, or none."""
    values = np.asarray(values)
    code = 0 if values.dtype == np.float32 else 1
    header = WVEC_MAGIC + bytes([1, code]) + values.size.to_bytes(8, "little")
    path.write_bytes(header + values.astype(values.dtype.newbyteorder("<")).tobytes())
    return path


class TestLeafKernel:
    """The leaf walk reproduces numpy's whole-array pairwise sums."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_signal_power_bit_identical_to_numpy_mean(self, dtype, n):
        # A wrong split changes the last bit in only some draws, so
        # multi-leaf lengths are checked over several.
        for seed in range(8 if n > LEAF else 1):
            x = spread_values(n, dtype, seed=seed)
            expected = float(np.mean(np.square(x.astype(np.float64))))
            assert sl.signal_power(sl.WeightVector(x)).hex() == expected.hex(), seed

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inject_and_measure_match_whole_array_arithmetic(self, dtype):
        n = 8 * LEAF + 13
        for seed in range(4):
            x = spread_values(n, dtype, seed=seed)
            w = sl.WeightVector(x)
            perturbed, report = sl.inject(w, 15.0, seed)
            x64 = x.astype(np.float64)
            p_w = float(np.mean(np.square(x64)))
            noise = np.random.default_rng(seed).standard_normal(n) * math.sqrt(
                sl.noise_sigma2(p_w, 15.0))
            np.testing.assert_array_equal(perturbed.values, (x64 + noise).astype(dtype))
            p_noise = float(np.mean(np.square(noise)))
            assert report.empirical_snr_db == 10.0 * math.log10(p_w / p_noise)
            p_diff = float(np.mean(np.square(perturbed.values.astype(np.float64) - x64)))
            assert sl.measure_snr(w, perturbed) == 10.0 * math.log10(p_w / p_diff)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_file_and_memory_paths_agree(self, tmp_path, dtype):
        n = 3 * LEAF + 5
        w = sl.WeightVector(spread_values(n, dtype))
        src = tmp_path / "w.wvec"
        sl.write_wvec(src, w)
        segments = [LEAF - 1, 5, 2 * LEAF + 1]
        for memory, file_segments in (
            (sl.inject(w, 17.0, seed=4), None),
            (sl.inject_segmented(w, segments, 17.0, seed=4), segments),
        ):
            perturbed, memory_report = memory
            expected = tmp_path / "expected.wvec"
            sl.write_wvec(expected, perturbed)
            out = tmp_path / "out.wvec"
            file_report = sl.perturb_wvec(src, out, 17.0, 4, file_segments)
            assert out.read_bytes() == expected.read_bytes()
            assert file_report == memory_report
            snr, count = sl.measure_wvec(src, out)
            assert count == n
            assert snr.hex() == sl.measure_snr(w, perturbed).hex()

    def test_nan_in_last_leaf_rejected_before_output(self, tmp_path):
        values = spread_values(3 * LEAF + 5, np.float32)
        values[-1] = np.nan
        src = write_raw_wvec(tmp_path / "w.wvec", values)
        out = tmp_path / "out.wvec"
        with pytest.raises(sl.DataValidationError, match="non-finite") as exc:
            sl.perturb_wvec(src, out, 20.0, 0)
        assert str(src) in str(exc.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.wvec"]

    @pytest.mark.parametrize("which", ["original", "perturbed"])
    def test_measure_rejects_non_finite_file(self, tmp_path, which):
        values = spread_values(LEAF + 1, np.float64)
        paths = {name: write_raw_wvec(tmp_path / f"{name}.wvec", values + i)
                 for i, name in enumerate(("original", "perturbed"))}
        bad = values.copy()
        bad[LEAF] = np.inf
        write_raw_wvec(paths[which], bad)
        with pytest.raises(sl.DataValidationError, match="non-finite") as exc:
            sl.measure_wvec(paths["original"], paths["perturbed"])
        assert str(paths[which]) in str(exc.value)

    def test_file_errors_match_memory_errors(self, tmp_path):
        src = tmp_path / "w.wvec"
        sl.write_wvec(src, vec([0.0, 0.0, 0.0]))
        with pytest.raises(sl.DataValidationError, match="zero signal power"):
            sl.perturb_wvec(src, tmp_path / "out.wvec", 10.0, 0)
        sl.write_wvec(src, vec(np.ones(10)))
        with pytest.raises(sl.DataValidationError, match="sum to 10"):
            sl.perturb_wvec(src, tmp_path / "out.wvec", 10.0, 0, [4, 4])
        with pytest.raises(sl.DataValidationError, match="identical"):
            sl.measure_wvec(src, src)
        other = tmp_path / "other.wvec"
        sl.write_wvec(other, vec(np.ones(11)))
        with pytest.raises(sl.DataValidationError, match="lengths differ"):
            sl.measure_wvec(src, other)
        assert not (tmp_path / "out.wvec").exists()


# Prints the minor page faults of perturb_wvec and of measure_wvec on
# each WVEC file named in argv, after one uncounted round on the first.
_FAULT_PROBE = """
import json, resource, sys
import scalelaws as sl

def faults(call):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

counts = []
for src in [sys.argv[1], *sys.argv[1:]]:
    out = src + ".out"
    counts.append([faults(lambda: sl.perturb_wvec(src, out, 20.0, 1)),
                   faults(lambda: sl.measure_wvec(src, out))])
print(json.dumps(counts[1:]))
"""


class TestLeafBuffers:
    """Each pass reuses its own leaf buffers."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="heap trimming is forced through glibc's MALLOC_ variables")
    def test_page_faults_do_not_grow_with_file_size(self, tmp_path):
        # With trimming forced, a temporary freed at the top of the heap
        # goes back to the system, so a pass that allocates per leaf
        # faults its pages in again on every leaf.
        paths = []
        for n in (1 << 20, 1 << 22):
            paths.append(str(tmp_path / f"w{n}.wvec"))
            sl.write_wvec(paths[-1], sl.WeightVector(spread_values(n, np.float32)))
        src = str(Path(sl.__file__).resolve().parents[1])
        env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="0", MALLOC_MMAP_THRESHOLD_="1048576",
                   MALLOC_TOP_PAD_="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE, *paths], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        small, large = json.loads(proc.stdout)
        for command, a, b in zip(("perturb", "measure"), small, large):
            assert b - a < 500, (command, small, large)

    def test_concurrent_calls_match_serial_calls(self, tmp_path):
        def run(index, tag):
            src = tmp_path / f"w{index}.wvec"
            out = tmp_path / f"p{index}.{tag}.wvec"
            segments = [LEAF + index, 2 * LEAF - index + 3] if index % 2 else None
            report = sl.perturb_wvec(src, out, 10.0 + index, index, segments)
            return out.read_bytes(), report, sl.measure_wvec(src, out)

        jobs = range(4)  # more threads than a small machine has cores
        for index in jobs:
            dtype = np.float32 if index < 2 else np.float64
            sl.write_wvec(tmp_path / f"w{index}.wvec",
                          sl.WeightVector(spread_values(3 * LEAF + 3, dtype, seed=index)))
        serial = [run(index, "serial") for index in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(3):
                start = threading.Barrier(len(jobs))

                def together(index, tag):
                    start.wait(timeout=60)
                    return run(index, tag)

                with ThreadPoolExecutor(len(jobs)) as pool:
                    futures = [pool.submit(together, index, f"t{round_}") for index in jobs]
                    assert [f.result(timeout=60) for f in futures] == serial, round_
        finally:
            sys.setswitchinterval(interval)


@st.composite
def corrupt_wvec_files(draw):
    """(file bytes, kind) for a WVEC file with exactly one defect."""
    code = draw(st.sampled_from([0, 1]))
    count = draw(st.integers(1, 20))
    itemsize = 4 if code == 0 else 8
    header = bytearray(WVEC_MAGIC + bytes([1, code]) + count.to_bytes(8, "little"))
    payload = bytes(count * itemsize)
    kind = draw(st.sampled_from(
        ["truncated_header", "short_payload", "long_payload", "magic", "version", "dtype"]
    ))
    if kind == "truncated_header":
        return bytes(header[:draw(st.integers(0, len(header) - 1))]), kind
    if kind == "short_payload":
        return bytes(header) + payload[:draw(st.integers(0, len(payload) - 1))], kind
    if kind == "long_payload":
        return bytes(header) + payload + draw(st.binary(min_size=1, max_size=16)), kind
    if kind == "magic":
        header[:4] = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != WVEC_MAGIC))
    elif kind == "version":
        header[4] = draw(st.integers(0, 255).filter(lambda v: v != 1))
    else:
        header[5] = draw(st.integers(2, 255))
    return bytes(header) + payload, kind


class TestWvecRejection:
    """Every malformed container is a DataValidationError naming the path."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(case=corrupt_wvec_files())
    def test_corrupt_files_rejected(self, tmp_path_factory, case):
        blob, kind = case
        path = tmp_path_factory.mktemp("bad") / "w.wvec"
        path.write_bytes(blob)
        good = path.with_name("good.wvec")
        sl.write_wvec(good, vec([1.0]))
        for call in (
            lambda: sl.read_wvec(path),
            lambda: sl.perturb_wvec(path, path.with_name("out.wvec"), 20.0, 0),
            lambda: sl.measure_wvec(path, good),
            lambda: sl.measure_wvec(good, path),
        ):
            with pytest.raises(sl.DataValidationError) as exc:
                call()
            assert str(path) in str(exc.value), kind
        assert not path.with_name("out.wvec").exists()

    def test_zero_count_rejected(self, tmp_path):
        path = write_raw_wvec(tmp_path / "w.wvec", np.zeros(0))
        with pytest.raises(sl.DataValidationError, match="at least one element"):
            sl.read_wvec(path)


class TestExtremeSnr:
    """Noise that leaves the float range is rejected in memory and on file."""

    @pytest.mark.parametrize("dtype,snr_db", [
        (np.float32, 4000.0), (np.float32, -4000.0), (np.float32, -3100.0),
        (np.float32, -3000.0), (np.float64, 4000.0), (np.float64, -3100.0),
    ])
    def test_rejected(self, tmp_path, dtype, snr_db):
        w = vec(np.random.default_rng(13).normal(0, 0.02, 1000), dtype)
        with pytest.raises(sl.DataValidationError, match=f"snr_db {snr_db}"):
            sl.inject(w, snr_db, 1)
        src, out = tmp_path / "w.wvec", tmp_path / "out.wvec"
        sl.write_wvec(src, w)
        with pytest.raises(sl.DataValidationError, match=f"snr_db {snr_db}"):
            sl.perturb_wvec(src, out, snr_db, 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.wvec"]

    def test_noise_sigma2_range(self):
        for snr_db in (4000.0, -4000.0):
            with pytest.raises(sl.DataValidationError, match="snr_db"):
                sl.noise_sigma2(1.0, snr_db)
        assert sl.noise_sigma2(1.0, -3000.0) == 1.0 / 10.0 ** -300.0

    def test_noise_power_underflow(self):
        with pytest.raises(sl.DataValidationError, match="noise power of 0.0"):
            sl.inject(vec(np.full(10, 1e-160)), 100.0, 1)

    def test_f64_keeps_low_snr_within_range(self):
        _, report = sl.inject(vec(np.random.default_rng(13).normal(0, 0.02, 1000)), -3000.0, 1)
        assert abs(report.empirical_snr_db + 3000.0) < 0.5
