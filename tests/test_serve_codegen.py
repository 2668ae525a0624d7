"""The ``compiled`` backend's codegen stack: the kernel library's
constants and numerics, the build cache, fallback semantics, the CLI,
and edge-shape parity.

The heavyweight bit-exactness contract (every model family, every batch
size) lives in ``tests/test_serve_backends.py`` and the seeded
``tests/test_codegen_differential.py``; this file covers the pieces
underneath it — exact C literals, the library's round-half-even
quantizer chain against the reference quantizer, content-hash cache
behaviour (one library per cache), the typed
:class:`~repro.errors.BackendError` vocabulary, and the ``compiled ->
fused`` degradation on machines with no C compiler (including a real
PATH-stripped subprocess).
"""

import ctypes
import os
import shutil
import subprocess
import sys
import textwrap
from ctypes import c_void_p
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.errors import BackendError, CompileError, ConfigurationError
from repro.quant.ste import ActivationQuantizer
from repro.serve import ExecutionPlan
from repro.serve.backends import compile_graph, get_backend, resolve_backend
from repro.serve.cli import build_model
from repro.serve.codegen import (
    build,
    build_library,
    c_float,
    cache_dir,
    cached_libraries,
    clear_cache,
    compiler_probe,
    have_compiler,
    kernel_library,
    library_units,
    load_library,
)
from repro.serve.codegen import runtime
from repro.serve.codegen.build import (
    BASE_CFLAGS,
    OPT_TIERS,
    _reset_probe_cache,
)
from repro.serve.codegen.renderer import LIBRARY_UNITS, ActQuant
from repro.serve.export import build_artifact, eager_forward
from repro.serve.ptq import post_training_quantize
from repro.tensor import stable_sigmoid, stable_tanh

needs_cc = pytest.mark.skipif(
    not have_compiler(),
    reason=f"no C compiler: {compiler_probe()[1]}")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An isolated (initially empty) codegen cache directory."""
    directory = tmp_path / "codegen-cache"
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(directory))
    return directory


@pytest.fixture
def fresh_blas():
    """Resolve numpy's BLAS afresh in this test (and after it)."""
    runtime._reset_blas_cache()
    yield
    runtime._reset_blas_cache()


@pytest.fixture
def no_compiler(monkeypatch):
    """Make the compiler probe fail for the duration of one test."""
    monkeypatch.setenv("REPRO_CC", "/nonexistent/definitely-not-a-cc")
    _reset_probe_cache()
    yield
    _reset_probe_cache()


# ----------------------------------------------------------------------
# Literals
# ----------------------------------------------------------------------
class TestLiterals:
    def test_c_float_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([
            rng.normal(scale=10.0, size=200).astype(np.float32),
            np.array([1e-42, -1e-42, 2**-149, 1.0, -1.0, 6.0],
                     dtype=np.float32),
        ])
        for value in values:
            token = c_float(value)
            assert token.endswith("f")
            assert np.float32(float.fromhex(token[:-1])) == value

    def test_c_float_specials(self):
        assert c_float(np.float32("nan")) == "NAN"
        assert c_float(np.float32("inf")) == "INFINITY"
        assert c_float(np.float32("-inf")) == "-INFINITY"
        assert c_float(np.float32(0.0)) == "0.0f"
        assert c_float(np.float32(-0.0)) == "-0.0f"

    def test_activation_constants_reach_every_unit(self):
        """The library's units get the constants of
        :mod:`repro.tensor.activations` as exact literals."""
        from repro.tensor import activations as act

        for _, source, _ in library_units(True):
            assert "typedef long long blasint;" in source
            assert f"#define ACT_LOG2E ({c_float(act.LOG2E)})" in source
            for i, value in enumerate(act.EXP_POLY):
                assert f"#define ACT_EXP_POLY{i} ({c_float(value)})" in source


def _library_fn(name, *argtypes):
    """An exported function of the kernel library of the current cache."""
    fn = getattr(load_library(kernel_library().path), name)
    fn.restype = None
    fn.argtypes = list(argtypes)
    return fn


# ----------------------------------------------------------------------
# Activation fake-quant rendering
# ----------------------------------------------------------------------
class TestActQuant:
    @pytest.mark.parametrize("signed", [False, True])
    def test_level_grid_matches_reference_quantizer(self, signed):
        quantizer = ActivationQuantizer(4, signed=signed, alpha=0.83)
        quantizer.calibrating = False
        chain = ActQuant({"alpha": quantizer.alpha, "signed": signed,
                          "bits": 4})
        rng = np.random.default_rng(3)
        x = (rng.normal(scale=1.5, size=8192)).astype(np.float32)
        expected = np.asarray(quantizer.quantize_array(x),
                              dtype=np.float32)
        # Every reference output is exactly one of the renderer's levels.
        assert np.isin(expected, chain.levels).all()
        # The grid itself is a fixed point of the quantizer.
        regrid = np.asarray(quantizer.quantize_array(chain.levels),
                            dtype=np.float32)
        assert np.array_equal(regrid, chain.levels)

    @needs_cc
    @pytest.mark.parametrize("signed", [False, True])
    def test_library_chain_is_bitwise_exact(self, signed, fresh_cache):
        quantizer = ActivationQuantizer(4, signed=signed, alpha=1.37)
        quantizer.calibrating = False
        chain = ActQuant({"alpha": quantizer.alpha, "signed": signed,
                          "bits": 4})
        alpha = np.float32(quantizer.alpha)
        steps = np.float32(chain.steps)
        rng = np.random.default_rng(7)
        x = np.concatenate([
            rng.normal(scale=2.0, size=4096).astype(np.float32),
            # Exact representable tie points, clip edges, signed zeros,
            # denormals and non-finite values.
            ((np.arange(-chain.steps, chain.steps, dtype=np.float32)
              + np.float32(0.5)) / steps * alpha),
            np.array([0.0, -0.0, alpha, -alpha,
                      np.nextafter(alpha, np.float32(np.inf)),
                      np.nextafter(alpha, np.float32(0.0)),
                      1e-42, -1e-42, np.inf, -np.inf, np.nan],
                     dtype=np.float32),
        ]).astype(np.float32)
        # The descriptor's constants, through the library's chain.
        q = ActQuant.descriptor(chain)
        fn = _library_fn("repro_fake_quant", ctypes.c_long, c_void_p,
                         c_void_p, ctypes.c_float, ctypes.c_float,
                         ctypes.c_float)
        got = np.empty_like(x)
        fn(x.size, x.ctypes.data, got.ctypes.data, q.low, q.alpha, q.steps)
        expected = np.asarray(quantizer.quantize_array(x),
                              dtype=np.float32)
        # The serving contract: value-exact under np.array_equal (the
        # check every backend is gated on, compile time and runtime).
        valued = ~np.isnan(expected)
        assert np.array_equal(got[valued], expected[valued])
        assert np.isnan(got[~valued]).all()
        # Strictly bitwise on every nonzero output — proves the float32
        # descriptor constants and the magic-constant rounding reproduce
        # the numpy ufunc chain exactly. (Zero outputs are excluded:
        # np.clip's signed-zero choice for inputs that round to 0 is a
        # numpy SIMD implementation detail, and -0.0 == 0.0 under the
        # contract.)
        nonzero = valued & (expected != 0.0)
        assert np.array_equal(got[nonzero].view(np.int32),
                              expected[nonzero].view(np.int32))


# ----------------------------------------------------------------------
# The owned gate activations, in the library
# ----------------------------------------------------------------------
def _float32_sweep():
    """Specials plus every 4099th float32 bit pattern (all exponents,
    both signs, NaNs and infinities included) plus dense normal draws.
    NaNs are quiet ones: arithmetic on a signaling NaN raises the
    invalid flag by IEEE-754's rules, whoever performs it."""
    rng = np.random.default_rng(41)
    patterns = np.arange(0, 2 ** 32, 4099, dtype=np.uint64).astype(
        np.uint32).view(np.float32)
    patterns[np.isnan(patterns)] = np.nan
    return np.concatenate([
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e3, -1e3, 88.0,
                  -88.0, -87.5, -103.9, -104.0, -104.1, -200.0, 52.0,
                  -52.0, 0.625, -0.625, 1e-45, -1e-45, 3e38, -3e38],
                 dtype=np.float32),
        np.nextafter(np.float32([0.625, -0.625]), np.float32(0.0)),
        patterns,
        rng.normal(scale=4.0, size=100_000).astype(np.float32),
    ])


def _activation(which):
    """The library's in-place ``repro_sigmoid``/``repro_tanh``."""
    return _library_fn("repro_tanh" if which else "repro_sigmoid",
                       ctypes.c_long, c_void_p)


class TestOwnedActivations:
    def test_infinities_and_nan(self):
        x = np.float32([np.inf, -np.inf, np.nan])
        assert np.array_equal(stable_sigmoid(x), np.float32([1, 0, np.nan]),
                              equal_nan=True)
        assert np.array_equal(stable_tanh(x), np.float32([1, -1, np.nan]),
                              equal_nan=True)

    def test_no_floating_point_warnings(self):
        x = _float32_sweep()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            stable_sigmoid(x)
            stable_tanh(x)

    @needs_cc
    @pytest.mark.parametrize("which", [0, 1], ids=["sigmoid", "tanh"])
    def test_rendered_c_is_bitwise_numpy(self, which, fresh_cache):
        """The library performs the numpy sequence op for op: equal bits
        on every non-NaN output, NaN exactly where numpy has one."""
        x = _float32_sweep()
        got = x.copy()
        _activation(which)(got.size, got.ctypes.data)
        expected = (stable_tanh if which else stable_sigmoid)(x)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int32),
                              expected[~nan].view(np.int32))

    @needs_cc
    def test_no_undefined_float_to_int_conversion(self, tmp_path):
        """Run the library's activations on NaN, infinities and the whole
        exponent range under UBSan's float-cast-overflow check: the
        exponent is clamped before it is converted. UBSan does not see
        a vector conversion, so this build converts lane by lane."""
        blas, note = runtime.blas_probe()
        if blas is None:
            pytest.skip(note)
        units = {name: source for name, source, _ in
                 library_units(blas.ilp64)}
        conversion = "__builtin_convertvector(kc, vi)"
        assert units["rnn"].count(conversion) == 1
        lanes = ("static inline vi lanes_to_int(vf v) {\n  vi r;\n"
                 "  for (int i = 0; i < (int)(sizeof r / sizeof r[0]); ++i)"
                 "\n    r[i] = (int)v[i];\n  return r;\n}\n")
        units["rnn"] = units["rnn"].replace(
            conversion, "lanes_to_int(kc)").replace(
            "INLINE vf exp_nonpositive", lanes + "INLINE vf exp_nonpositive")
        x = _float32_sweep()
        sources = []
        for name, source in units.items():
            sources.append(tmp_path / f"{name}.c")
            sources[-1].write_text(source)
        program = tmp_path / "main.c"
        program.write_text(
            "#include <stdio.h>\n"
            "void repro_sigmoid(long m, float *v);\n"
            "void repro_tanh(long m, float *v);\n"
            "int main(void) {\n  float x, r; double sum = 0.0;\n"
            "  while (fread(&x, sizeof x, 1, stdin) == 1) {\n"
            "    r = x; repro_sigmoid(1, &r); sum += r == r;\n"
            "    r = x; repro_tanh(1, &r); sum += r == r;\n  }\n"
            "  printf(\"%.0f\\n\", sum);\n  return 0;\n}\n")
        binary = tmp_path / "act"
        compiler = compiler_probe()[0]
        flags = ["-O1", "-fsanitize=float-cast-overflow",
                 "-fno-sanitize-recover=all", "-ffp-contract=off"]
        trivial = tmp_path / "trivial.c"
        trivial.write_text("int main(void) { return 0; }\n")
        if subprocess.run([compiler, *flags, str(trivial), "-o",
                           str(tmp_path / "trivial")],
                          capture_output=True).returncode != 0:
            pytest.skip("the compiler has no UBSan runtime")
        built = subprocess.run(
            [compiler, *flags, str(program), *map(str, sources), "-o",
             str(binary), "-lm"], capture_output=True, text=True)
        assert built.returncode == 0, built.stderr[:500]
        run = subprocess.run([str(binary)], input=x.tobytes(),
                             capture_output=True)
        assert run.returncode == 0, run.stderr.decode()[:500]
        assert int(run.stdout) == 2 * int((~np.isnan(x)).sum())


# ----------------------------------------------------------------------
# Build cache
# ----------------------------------------------------------------------
@needs_cc
class TestBuildCache:
    SOURCE = "float repro_test_fn(float v) { return v + 1.0f; }\n"

    @staticmethod
    def build(source):
        return build_library([("fn", source, ())], tag="t")

    def test_identical_source_reuses_cache_entry(self, fresh_cache):
        first = self.build(self.SOURCE)
        stamp = first.stat().st_mtime_ns
        second = self.build(self.SOURCE)
        assert second == first
        assert second.stat().st_mtime_ns == stamp  # no rebuild
        assert first.parent == fresh_cache

    def test_different_source_gets_different_entry(self, fresh_cache):
        a = self.build(self.SOURCE)
        b = self.build(self.SOURCE.replace("1.0f", "2.0f"))
        assert a != b
        assert len(cached_libraries()) == 2

    def test_source_kept_next_to_library(self, fresh_cache):
        library = self.build(self.SOURCE)
        source = library.parent / f"{library.stem}.fn.c"
        assert source.read_text() == self.SOURCE

    def test_clear_cache_counts_and_empties(self, fresh_cache):
        self.build(self.SOURCE)
        self.build(self.SOURCE.replace("v +", "v -"))
        assert cache_dir() == fresh_cache
        assert clear_cache() == 2
        assert cached_libraries() == []

    def test_rejected_source_raises_compile_error(self, fresh_cache):
        with pytest.raises(CompileError, match="compiler exited"):
            self.build("this is not C\n")


# ----------------------------------------------------------------------
# Optimization tiers
# ----------------------------------------------------------------------
@pytest.fixture
def gcc(monkeypatch):
    """Probe gcc alone, afresh, for one test."""
    monkeypatch.setenv("REPRO_CC", "gcc")
    _reset_probe_cache()
    yield
    _reset_probe_cache()


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
class TestOptimizationTiers:
    """gcc takes the vectorizing ``-O2`` tier, the library's conv and
    recurrent units build at ``-O1`` after it, and the tier never changes
    a bit."""

    OLD_TIER = ("-O3", "-march=native")

    def test_gcc_takes_the_first_tier_and_reports_all_of_it(self, gcc):
        compiler, note = compiler_probe()
        assert compiler is not None
        assert build._probe()[1] == OPT_TIERS[0] + BASE_CFLAGS
        assert note.endswith(f"({' '.join(OPT_TIERS[0])})")

    def test_units_build_side_by_side_recurrent_at_o1(self, gcc,
                                                      fresh_cache,
                                                      monkeypatch):
        """Every unit compiles with the probed flags (the conv and
        recurrent ones then ``-O1``), all compilers start before any is
        awaited, and one link makes the one library."""
        compiler_probe()
        commands, waited = [], []
        popen = subprocess.Popen

        class Recording(popen):
            def __init__(self, command, *args, **kwargs):
                commands.append((list(command), len(waited)))
                super().__init__(command, *args, **kwargs)

            def communicate(self, *args, **kwargs):
                waited.append(self.args)
                return super().communicate(*args, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", Recording)
        library = build_library(library_units(True), tag="kernels")
        *compiles, (link, _) = commands
        assert len(compiles) == len(LIBRARY_UNITS)
        assert all(started == 0 for _, started in compiles)
        for (command, _), (name, extra) in zip(compiles, LIBRARY_UNITS):
            flags = command[1:command.index("-c")]
            assert flags == [*OPT_TIERS[0], *BASE_CFLAGS, *extra]
            assert command[-1].endswith(f"{library.stem}.{name}.c")
        assert dict(LIBRARY_UNITS) == {"dense": (), "conv": ("-O1",),
                                       "rnn": ("-O1",)}
        assert sum(part.endswith(".o") for part in link) == len(compiles)
        assert cached_libraries() == [library]

    def test_vectorizing_tier_never_changes_a_bit(self, gcc, tmp_path,
                                                  monkeypatch):
        rng = np.random.default_rng(23)
        cases = {}
        for name in ("resnet_tiny", "gru_speech"):
            model, sample = build_model(name, seed=0)
            results = post_training_quantize(model, [sample(rng, 8)])
            artifact = build_artifact(model, sample(rng, 4),
                                      layer_results=results, name=name)
            reference = compile_graph(artifact, "reference", verify=False)
            batches = [sample(rng, n) for n in range(1, 9)]
            cases[name] = (artifact, reference, batches,
                           [reference.run(x) for x in batches])
        # One gru_speech stream of 3 requests in chunks of 5, 1 and 6
        # steps, each chunk starting from the state the last one left.
        stream = cases["gru_speech"][2][2]
        chunks = [stream[:, :5], stream[:, 5:6], stream[:, 6:]]

        def run_stream(model):
            state, outs = {}, []
            for chunk in chunks:
                out, state = model.run_stateful(chunk, state)
                outs.append(out)
            return outs

        expected_stream = run_stream(cases["gru_speech"][1])
        outputs, sources = {}, {}
        for label, tier in (("O3", self.OLD_TIER),
                            ("vectorized", OPT_TIERS[0])):
            # gcc offered only this tier, building into a fresh cache.
            monkeypatch.setattr(build, "OPT_TIERS", (tier,))
            monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / label))
            _reset_probe_cache()
            assert build._probe()[1] == tier + BASE_CFLAGS
            for name, (artifact, _, batches, expected) in cases.items():
                compiled = compile_graph(artifact, "compiled", verify=False)
                got = [compiled.run(x) for x in batches]
                for n, (out, want) in enumerate(zip(got, expected), 1):
                    assert np.array_equal(out, want, equal_nan=True), \
                        (label, name, n)
                if name == "gru_speech":
                    got += run_stream(compiled)
                    for out, want in zip(got[-len(chunks):],
                                         expected_stream):
                        assert np.array_equal(out, want), (label, "stream")
                outputs[label, name] = got
                library = kernel_library().path
                assert library.parent == tmp_path / label
                sources[label, name] = [
                    path.read_text() for path in
                    sorted(library.parent.glob(f"{library.stem}.*.c"))]
        for name in cases:
            # The same source, built at both tiers: identical bits.
            assert sources["O3", name] == sources["vectorized", name]
            for old, new in zip(outputs["O3", name],
                                outputs["vectorized", name]):
                assert old.dtype == new.dtype and old.shape == new.shape
                assert old.tobytes() == new.tobytes(), name


# ----------------------------------------------------------------------
# Typed backend errors + fallback semantics
# ----------------------------------------------------------------------
class TestBackendErrors:
    def test_unknown_backend_is_typed_and_names_available(self):
        with pytest.raises(BackendError) as info:
            get_backend("turbo")
        error = info.value
        assert error.requested == "turbo"
        assert {"reference", "fused", "compiled"} <= set(error.available)
        for name in error.available:
            assert name in str(error)
        assert isinstance(error, ConfigurationError)

    def test_autotune_space_rejects_unknown_backend(self):
        from repro.autotune.space import SearchSpace

        with pytest.raises(BackendError, match="turbo"):
            SearchSpace(device="XC7Z045", backends=("fused", "turbo"))

    def test_compiled_resolves_to_fused_without_compiler(self,
                                                         no_compiler):
        with pytest.warns(RuntimeWarning, match="falling back to 'fused'"):
            backend = resolve_backend("compiled")
        assert backend.name == "fused"

    @needs_cc
    def test_compiled_resolves_to_fused_without_blas(self, monkeypatch,
                                                     fresh_blas):
        def missing(library, name):
            raise AttributeError(f"undefined symbol: {name}")

        monkeypatch.setattr(runtime, "_lookup_symbol", missing)
        with pytest.warns(RuntimeWarning,
                          match="falling back to 'fused'") as record:
            backend = resolve_backend("compiled")
        assert backend.name == "fused"
        assert any("BLAS" in str(w.message) and "undefined symbol"
                   in str(w.message) for w in record)

    def test_compiled_plan_degrades_to_fused(self, no_compiler, tmp_path,
                                             trained_mlp, toy_task):
        x, _ = toy_task
        path = tmp_path / "mlp.npz"
        build_artifact(trained_mlp, x[:8], name="mlp").save(path)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            plan = ExecutionPlan.load(path, backend="compiled")
        assert plan.backend == "fused"
        assert np.array_equal(plan.forward(x[:8]),
                              eager_forward(trained_mlp, x[:8]))

    @pytest.mark.subprocess
    def test_path_stripped_subprocess_falls_back(self, tmp_path):
        """The real no-compiler machine: an interpreter whose PATH holds
        no compiler at all must serve ``compiled`` requests on fused."""
        empty = tmp_path / "empty-path"
        empty.mkdir()
        code = textwrap.dedent("""\
            import warnings
            from repro.serve.codegen import compiler_probe, have_compiler
            assert not have_compiler(), compiler_probe()
            from repro.serve.backends import resolve_backend
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                backend = resolve_backend("compiled")
            assert backend.name == "fused", backend.name
            assert any(issubclass(w.category, RuntimeWarning)
                       for w in caught)
            print("fallback-ok")
        """)
        env = {key: value for key, value in os.environ.items()
               if key not in ("REPRO_CC",)}
        env["PATH"] = str(empty)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestBackendsCLI:
    def test_lists_backends_with_availability(self, fresh_cache, capsys):
        from repro.api.cli import main

        assert main(["serve", "backends"]) == 0
        out = capsys.readouterr().out
        for name in ("reference", "fused", "compiled"):
            assert name in out
        assert "codegen cache:" in out
        assert str(fresh_cache) in out

    def test_clear_cache_flag(self, fresh_cache, capsys):
        from repro.api.cli import main

        if have_compiler():
            build_library([("fn", "float repro_cli_fn(void){return 3.0f;}\n",
                            ())], tag="cli")
        assert main(["serve", "backends", "--clear-cache"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert cached_libraries() == []


# ----------------------------------------------------------------------
# Edge-shape parity across all backends
# ----------------------------------------------------------------------
EDGE_MODELS = ("conv_odd_channels", "linear_single_feature",
               "maxpool_tail", "standalone_eltwise", "conv_strided_padded",
               "degenerate_gemms", "lstm_unquantized")


class _LstmHead(nn.Module):
    """One LSTM layer, then a per-step linear head over the merged time
    axis."""

    def __init__(self, features, hidden, gen):
        super().__init__()
        self.lstm = nn.LSTM(features, hidden, rng=gen)
        self.head = nn.Linear(hidden, 2, rng=gen)

    def forward(self, x):
        out, _ = self.lstm(x)
        n, t, h = out.shape
        return self.head(out.reshape(n * t, h))

    def export_structure(self):
        return ("chain", [self.lstm, "merge_time", self.head])


def _edge_model(case: str):
    gen = np.random.default_rng(21)
    if case == "lstm_unquantized":
        # The first quantizable layer keeps float inputs, so NaN and
        # infinities reach the gates and the state unclipped; T=1 and
        # hidden 5 make every GEMM of the time loop tiny, and batch 1
        # makes both of them duplicated two-row GEMMs.
        model = _LstmHead(3, 5, gen)
        shape = (1, 3)
    elif case == "conv_odd_channels":
        # Odd channel counts and odd spatial sizes through conv + pool.
        model = nn.Sequential(
            nn.Conv2d(3, 5, 3, padding=1, rng=gen), nn.ReLU(),
            nn.Conv2d(5, 7, 3, rng=gen), nn.ReLU6(),
            nn.Flatten(), nn.Linear(7 * 7 * 7, 3, rng=gen))
        shape = (3, 9, 9)
    elif case == "linear_single_feature":
        # One-element request tensors end to end.
        model = nn.Sequential(
            nn.Linear(1, 3, rng=gen), nn.ReLU(),
            nn.Linear(3, 1, rng=gen))
        shape = (1,)
    elif case == "maxpool_tail":
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=gen), nn.ReLU(),
            nn.MaxPool2d(2), nn.Flatten(),
            nn.Linear(4 * 4 * 4, 2, rng=gen))
        shape = (3, 8, 8)
    elif case == "conv_strided_padded":
        # Strided and padded gathers: a k5 window reaching two cells
        # into the padding, stride 3 skipping the right border, a 1x1
        # whose whole border rows/columns are padding, an unpadded
        # strided tail. Spatial sizes 11 -> 6 -> 3 -> 5 -> 2.
        model = nn.Sequential(
            nn.Conv2d(3, 4, 5, stride=2, padding=2, rng=gen), nn.ReLU(),
            nn.Conv2d(4, 5, 3, stride=3, padding=2, rng=gen), nn.ReLU(),
            nn.Conv2d(5, 3, 1, stride=1, padding=1, rng=gen), nn.ReLU(),
            nn.Conv2d(3, 4, 3, stride=2, rng=gen), nn.Flatten(),
            nn.Linear(4 * 2 * 2, 2, rng=gen))
        shape = (3, 11, 11)
    elif case == "degenerate_gemms":
        # Every route numpy's matmul takes besides sgemm, with inner
        # dimensions long enough for BLAS to order its sums its own way:
        # an inner dimension of 1 (numpy's own loop: 1 input channel at
        # k1, a k1 depthwise, 1 input feature), one output row or column
        # (sgemv: 1 output channel, a 1x1 output plane) and a 1x1 result
        # (sdot: both, and a 1x1 depthwise output at batch 1).
        model = nn.Sequential(
            nn.Conv2d(1, 8, 1, rng=gen), nn.ReLU(),
            nn.Conv2d(8, 8, 1, groups=8, rng=gen), nn.ReLU(),
            nn.Conv2d(8, 16, 3, padding=1, rng=gen), nn.ReLU(),
            nn.Conv2d(16, 1, 3, padding=1, rng=gen), nn.ReLU(),
            nn.Conv2d(1, 32, 3, padding=1, rng=gen), nn.ReLU(),
            nn.Conv2d(32, 64, 5, rng=gen), nn.ReLU(),
            nn.Conv2d(64, 64, 3, padding=1, groups=64, rng=gen), nn.ReLU(),
            nn.Conv2d(64, 1, 1, rng=gen), nn.Flatten(),
            nn.Linear(1, 2, rng=gen))
        shape = (1, 5, 5)
    else:
        # Batch-norm / ReLU6 behind a pool: no GEMM to fuse into, so
        # they run as standalone elementwise nodes.
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=gen), nn.MaxPool2d(2),
            nn.BatchNorm2d(4), nn.ReLU6(), nn.Flatten(),
            nn.Linear(4 * 4 * 4, 6, rng=gen), nn.ReLU(),
            nn.BatchNorm1d(6), nn.Linear(6, 2, rng=gen))
        shape = (3, 8, 8)
    return model, shape


@pytest.fixture(scope="module")
def edge_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("edge")
    built = {}
    rng = np.random.default_rng(2)
    for case in EDGE_MODELS:
        model, shape = _edge_model(case)
        calibration = [rng.normal(size=(8, *shape)).astype(np.float32)]
        results = post_training_quantize(model, calibration)
        path = root / f"{case}.npz"
        build_artifact(model, calibration[0][:4], layer_results=results,
                       name=case).save(path)
        built[case] = (model, path, shape)
    return built


class TestEdgeShapeParity:
    @pytest.mark.parametrize("case", EDGE_MODELS)
    @pytest.mark.parametrize("backend",
                             ["reference", "fused", "compiled"])
    def test_backends_agree_on_edge_shapes(self, case, backend,
                                           edge_artifacts):
        if backend == "compiled" and not have_compiler():
            pytest.skip("no C compiler")
        model, path, shape = edge_artifacts[case]
        plan = ExecutionPlan.load(path, backend=backend)
        rng = np.random.default_rng(13)
        for n in (1, 3):  # batch 1 is the classic degenerate case
            batch = rng.normal(size=(n, *shape)).astype(np.float32)
            assert np.array_equal(plan.forward(batch),
                                  eager_forward(model, batch)), (case, n)

    @pytest.mark.parametrize("case", EDGE_MODELS)
    @pytest.mark.parametrize("backend",
                             ["reference", "fused", "compiled"])
    def test_nan_propagates_like_eager(self, case, backend, edge_artifacts):
        if backend == "compiled" and not have_compiler():
            pytest.skip("no C compiler")
        model, path, shape = edge_artifacts[case]
        plan = ExecutionPlan.load(path, backend=backend)
        rng = np.random.default_rng(23)
        for n in (1, 3):
            batch = rng.normal(size=(n, *shape)).astype(np.float32)
            batch.flat[batch.size // 2] = np.nan
            assert np.array_equal(plan.forward(batch),
                                  eager_forward(model, batch),
                                  equal_nan=True), (case, n)


# ----------------------------------------------------------------------
# One native library per codegen cache
# ----------------------------------------------------------------------
ZOO = ("resnet_tiny", "mobilenet_v2", "lstm_lm", "gru_speech")


@pytest.fixture(scope="module")
def zoo_artifacts(tmp_path_factory):
    """``{model: (artifact path, sampler)}`` for four zoo models."""
    root = tmp_path_factory.mktemp("zoo")
    built = {}
    for name in ZOO:
        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(29)
        results = post_training_quantize(model, [sample(rng, 8)])
        path = root / f"{name}.npz"
        build_artifact(model, sample(rng, 4), layer_results=results,
                       name=name).save(path)
        built[name] = (path, sample)
    return built


@needs_cc
class TestOneLibraryPerCache:
    """No C is compiled per graph: every compiled graph runs on the one
    kernel library of its codegen cache, whatever it is and whatever
    batch sizes it serves."""

    def test_one_library_serves_every_batch_size(self, fresh_cache,
                                                 edge_artifacts):
        model, path, shape = edge_artifacts["maxpool_tail"]
        plan = ExecutionPlan.load(path, backend="compiled")
        rng = np.random.default_rng(17)
        # Revisiting sizes checks that the buffer addresses bound per
        # batch size stay valid after other sizes have run.
        for n in (1, 3, 8, 9, 3, 8, 1):
            batch = rng.normal(size=(n, *shape)).astype(np.float32)
            assert np.array_equal(plan.forward(batch),
                                  eager_forward(model, batch)), n
        assert len(cached_libraries()) == 1

    def test_batch_size_does_not_key_the_cache(self, fresh_cache,
                                               edge_artifacts):
        from repro.api import Deployment
        from repro.serve import ModelServer

        model, path, shape = edge_artifacts["conv_odd_channels"]
        rng = np.random.default_rng(19)
        deployment = Deployment.load(path, batch=4, backend="compiled")
        x = rng.normal(size=(4, *shape)).astype(np.float32)
        assert np.array_equal(deployment.predict(x), eager_forward(model, x))
        server = ModelServer(workers=0, max_batch=9)
        try:
            server.load("m", path, backend="compiled")
            plan = server.plan("m")
            x = rng.normal(size=(9, *shape)).astype(np.float32)
            assert np.array_equal(plan.forward(x), eager_forward(model, x))
        finally:
            server.close()
        assert cached_libraries() == [kernel_library().path]

    def test_zoo_shares_one_library(self, fresh_cache, zoo_artifacts):
        rng = np.random.default_rng(37)
        for name, (path, sample) in zoo_artifacts.items():
            plan = ExecutionPlan.load(path, backend="compiled")
            assert plan.backend == "compiled"
            plan.forward(sample(rng, 3))
        assert cached_libraries() == [kernel_library().path]

    @pytest.mark.subprocess
    def test_second_process_builds_nothing(self, fresh_cache,
                                           zoo_artifacts):
        """A process using a warm cache serves every zoo model natively
        without starting a compiler build."""
        rng = np.random.default_rng(41)
        for path, sample in zoo_artifacts.values():
            ExecutionPlan.load(path, backend="compiled").forward(
                sample(rng, 2))
        (library,) = cached_libraries()
        stamp = library.stat().st_mtime_ns
        code = textwrap.dedent("""\
            import sys
            import numpy as np
            from repro.errors import CompileError
            from repro.serve import ExecutionPlan
            from repro.serve.codegen import build, cached_libraries

            def refuse(commands):
                raise CompileError(f"unexpected build: {commands}")

            build._run_side_by_side = refuse
            for path in sys.argv[1:]:
                plan = ExecutionPlan.load(path, backend="compiled")
                assert plan.backend == "compiled", plan.backend
                shape = (2,) + plan.input_shape
                if plan.input_dtype.kind == "f":
                    plan.forward(np.zeros(shape, np.float32))
                else:
                    plan.forward(np.zeros(shape, plan.input_dtype))
            print(len(cached_libraries()))
        """)
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code,
             *(str(path) for path, _ in zoo_artifacts.values())],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["1"]
        assert cached_libraries() == [library]
        assert library.stat().st_mtime_ns == stamp


# ----------------------------------------------------------------------
# numpy's BLAS, called from C
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def matmul_library(tmp_path_factory):
    """``t_matmul``: the kernel library's (internal) ``matmul``, exported
    by a wrapper built into a private copy of the library."""
    blas, note = runtime.blas_probe()
    if blas is None:
        pytest.skip(note)
    wrapper = ("\nvoid t_matmul(long m, long k, long p, const float *a, "
               "const float *b, int bt, float *c) {\n"
               "  matmul(m, k, p, a, b, bt, c);\n}\n")
    units = [(name, source + wrapper if name == "dense" else source, extra)
             for name, source, extra in library_units(blas.ilp64)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CODEGEN_CACHE",
                     str(tmp_path_factory.mktemp("matmul")))
        library = load_library(build_library(units, tag="test-matmul"))
    bind = library.repro_bind_blas
    bind.restype = None
    bind.argtypes = [c_void_p] * len(blas.addresses)
    bind(*blas.addresses)
    fn = library.t_matmul
    fn.restype = None
    fn.argtypes = [ctypes.c_long] * 3 + [c_void_p, c_void_p, ctypes.c_int,
                                         c_void_p]
    return fn


@needs_cc
class TestNumpyBlas:
    def test_resolution_ignores_scipy_openblas(self, fresh_cache,
                                               fresh_blas):
        """scipy maps its own (LP64) OpenBLAS into the process; the
        routines bound into generated code must still be the ones numpy
        ships and calls."""
        pytest.importorskip("scipy")
        import scipy.special  # noqa: F401  (maps scipy's OpenBLAS)

        model, sample = build_model("resnet_tiny", seed=0)
        rng = np.random.default_rng(31)
        results = post_training_quantize(model, [sample(rng, 8)])
        artifact = build_artifact(model, sample(rng, 4),
                                  layer_results=results, name="rt")
        plan = ExecutionPlan(artifact, backend="compiled")
        assert plan.backend == "compiled"
        for n in (1, 6):
            x = sample(rng, n)
            assert np.array_equal(plan.forward(x), eager_forward(model, x))
        blas = kernel_library().blas
        package = Path(np.__file__).resolve().parent
        assert Path(blas.path).parent in (package.parent / "numpy.libs",
                                          package / ".dylibs")
        assert all("cblas_" in symbol for symbol in blas.symbols)

    @pytest.mark.parametrize("m,k,p,bt", [
        (1, 37, 1, 0), (1, 255, 1, 1),     # sdot
        (1, 37, 29, 0), (1, 37, 29, 1),    # sgemv, vector @ matrix
        (6, 37, 1, 0), (6, 255, 1, 1),     # sgemv, matrix @ vector
        (6, 1, 29, 0), (6, 1, 29, 1),      # numpy's own k=1 loop
        (6, 37, 29, 0), (6, 37, 29, 1),    # sgemm NoTrans / Trans
        (2, 24, 96, 1), (17, 24, 72, 1),   # recurrent GEMMs of the zoo
    ])
    def test_library_matmul_is_np_matmul(self, m, k, p, bt,
                                         matmul_library):
        """The library's ``matmul`` takes numpy's route for every shape:
        on random floats (whose sums depend on accumulation order, unlike
        the zoo's quantized operands) each route's bits equal
        ``np.matmul``'s, ``b`` either C order or a transposed view."""
        fn = matmul_library
        rng = np.random.default_rng(m * 1000 + k * 10 + p + bt)
        for _ in range(16):
            a = rng.normal(size=(m, k)).astype(np.float32)
            stored = rng.normal(size=(p, k) if bt else (k, p)).astype(
                np.float32)
            expected = np.matmul(a, stored.T if bt else stored)
            got = np.empty((m, p), np.float32)
            fn(m, k, p, a.ctypes.data, stored.ctypes.data, bt,
               got.ctypes.data)
            assert np.array_equal(got, expected), (m, k, p, bt)

    def test_runs_are_one_step_each(self, edge_artifacts):
        """Every maximal run of native nodes is one step of the slot
        program, and the compile log names each run and each node left
        as a Python step."""
        model, path, shape = edge_artifacts["standalone_eltwise"]
        plan = ExecutionPlan.load(path, backend="compiled")
        compiled = plan.compiled
        nodes = compiled.graph.nodes[1:]
        runs = [line for line in compiled.pass_log
                if line.startswith("codegen run")]
        python = [line for line in compiled.pass_log
                  if line.startswith("python steps")]
        fallback = [f"{node.kind}#{node.id}" for node in nodes
                    if node.codegen == "fallback"]
        assert fallback and len(python) == 1
        assert python[0].split(": ")[1].split() == fallback
        assert len(compiled._program) == len(runs) + len(fallback)
        assert len(runs) < len(nodes) - len(fallback)
        x = np.random.default_rng(3).normal(size=(2, *shape)).astype(
            np.float32)
        assert np.array_equal(plan.forward(x), eager_forward(model, x))
