import dataclasses

import pytest

from sdvkit.config import MachineConfig, load_machine_config, load_timing_params
from sdvkit.emulator import run
from sdvkit.errors import EmulationError, OutOfBoundsAccess, SdvError
from sdvkit.timing import TimingParams
from sdvkit.vstream import parse_vstream
from test_cli import run_cli

# Unit-stride, strided and indexed loads, a RAW pair, scalar counts, and more
# than the default vector_queue_depth of long-latency ops, so every knob of
# the cycle model has something to act on.
STREAM = "\n".join([
    ".memf64 0x1000 " + " ".join(f"{i}.5" for i in range(32)),
    ".memu64 0x2000 " + " ".join(str(8 * (31 - i)) for i in range(32)),
    ".xreg x1 32",
    ".xreg x10 0x1000",
    ".xreg x11 0x2000",
    ".xreg x12 0x3000",
    ".xreg x13 16",
    "vsetvli x2, x1, e64, m1",
    ".scalar 40",
    "vle64.v v1, (x10)",
    "vle64.v v2, (x11)",
    "vluxei64.v v3, (x10), v2",
    "vlse64.v v4, (x10), x13",
    "vfadd.vv v5, v1, v3",
    ".scalar 3",
    "vfmul.vv v6, v5, v4",
    "vse64.v v6, (x12)",
    *[f"vle64.v v{8 + i}, (x10)" for i in range(20)],
]) + "\n"

# One non-default value per key.  A key missing here fails its test, so a
# new knob must come with a stream on which it changes the output.
NON_DEFAULT = {
    "vlen_bits": 1024,            # VLMAX 16 < 32: strips shorten
    "memory_bytes": 0x2000,       # the store to 0x3000 falls outside memory
    "unit_stride_elems_per_cycle": 2,
    "indexed_elems_per_cycle": 4,
    "strided_elems_per_cycle": 4,
    "arith_elems_per_cycle": 2,
    "mem_latency_cycles": 3,
    "arith_latency_cycles": 2,
    "scalar_cycles_per_instr": 5,
    "vector_queue_depth": 2,
    "chaining": "true",
}


def _cli_output(tmp_path, capsys, *args):
    """Exit code, stdout, stderr and output file of one run."""
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = run_cli(*args, "-o", out)
    text = capsys.readouterr()
    return code, text.out, text.err, out.read_bytes() if out.exists() else None


def _key_file(tmp_path, key):
    path = tmp_path / f"{key}.ini"
    path.write_text(f"{key} = {NON_DEFAULT[key]}\n")
    return path


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(MachineConfig)])
def test_every_machine_key_changes_emulation(tmp_path, capsys, key):
    vs = tmp_path / "a.vs"
    vs.write_text(STREAM)
    default = _cli_output(tmp_path, capsys, "emulate", vs)
    assert default[0] == 0
    changed = _cli_output(tmp_path, capsys, "emulate", vs,
                          "--config", _key_file(tmp_path, key))
    assert changed != default


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TimingParams)])
def test_every_timing_key_changes_the_model(tmp_path, capsys, key):
    vs, trace = tmp_path / "a.vs", tmp_path / "a.trace"
    vs.write_text(STREAM)
    assert run_cli("emulate", vs, "-o", trace) == 0
    default = _cli_output(tmp_path, capsys, "simulate", trace)
    assert default[0] == 0
    changed = _cli_output(tmp_path, capsys, "simulate", trace,
                          "--timing", _key_file(tmp_path, key))
    assert changed[0] == 0
    assert changed != default


@pytest.mark.parametrize("command, flag, text", [
    ("schedule", "--config", "mem_latency_cycles = 1\n"),  # a timing key
    ("schedule", "--timing", "vlen_bits = 1024\n"),        # a machine key
    ("emulate", "--config", "lanes = 8\n"),                # no longer a key
    ("emulate", "--config", "vlen_bits = 64\n"),           # below 128
    ("simulate", "--timing", "vector_queue_depth = 0\n"),  # below 1
    ("emulate", "--config", "vlen_bits = 1024\nvlen_bits = 4096\n"),  # set twice
])
def test_bad_config_is_exit_1(tmp_path, capsys, command, flag, text):
    vs, trace = tmp_path / "a.vs", tmp_path / "a.trace"
    vs.write_text(STREAM)
    assert run_cli("emulate", vs, "-o", trace) == 0
    config = tmp_path / "bad.ini"
    config.write_text(text)
    source = trace if command == "simulate" else vs
    capsys.readouterr()
    assert run_cli(command, source, flag, config, "-o", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_loaders_take_only_their_own_fields(tmp_path):
    path = tmp_path / "all.ini"
    path.write_text("[machine]\nvlen_bits = 0x400  # hex is fine\n"
                    "memory_bytes = 4096\n")
    assert load_machine_config(path) == MachineConfig(vlen_bits=1024, memory_bytes=4096)
    with pytest.raises(SdvError, match="unknown timing parameter 'vlen_bits'"):
        load_timing_params(path)
    path.write_text("chaining = on\nmem_latency_cycles = 7\n")
    assert load_timing_params(path) == TimingParams(chaining=True, mem_latency_cycles=7)
    with pytest.raises(SdvError, match="unknown machine parameter 'chaining'"):
        load_machine_config(path)
    path.write_text("vlen_bits = 1024\n# again\n vlen_bits = 4096\n")
    with pytest.raises(SdvError, match="config line 3: key 'vlen_bits' set twice"):
        load_machine_config(path)


@pytest.mark.parametrize("text", ["chaining = 2\n", "mem_latency_cycles = true\n",
                                  "arith_latency_cycles = 1.5\n", "no equals sign\n"])
def test_values_that_do_not_parse(tmp_path, text):
    path = tmp_path / "t.ini"
    path.write_text(text)
    with pytest.raises(SdvError):
        load_timing_params(path)


def test_memory_reaches_at_most_2_64(tmp_path, capsys):
    # a store of two words at the last word of the u64 address space
    vs, config = tmp_path / "top.vs", tmp_path / "m.ini"
    vs.write_text(".xreg x1 2\nvsetvli x2, x1, e64, m1\n"
                  ".xreg x10 0xfffffffffffffff8\nvse64.v v1, (x10)\n")
    for memory_bytes, message in [
            (0x10000000000000001, "memory_bytes must be in [1, 2**64]"),
            # the first word that does not fit starts at 2^64, past the last address
            (1 << 64, "memory access at 0x10000000000000000 (element 1) "
                      "outside addressable range")]:
        config.write_text(f"memory_bytes = 0x{memory_bytes:x}\n")
        capsys.readouterr()
        assert run_cli("emulate", vs, "--config", config, "-o", tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    with pytest.raises(EmulationError) as excinfo:
        run(MachineConfig(memory_bytes=1 << 64), parse_vstream(vs.read_text()))
    assert isinstance(excinfo.value.cause, OutOfBoundsAccess)
