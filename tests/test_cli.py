import re
from fractions import Fraction

import pytest
from mpmath import mp

from mzvkit import associator, cli, finite, numeric, stadic
from mzvkit.cli import (
    COMMANDS, OPTIONS, CommandAst, Config, UsageError, load_config, main, parse_command, run,
)
from mzvkit.indices import Index
from support import clear_caches

CFG = Config(prec=40, orders=(1, 1), cache_path="")


def test_parse_examples():
    cases = [
        (["check", "harmonic", "(1)", "(2)", "--orders", "2,2"],
         CommandAst("check", "harmonic", (Index((1,)), Index((2,))), {"orders": (2, 2)})),
        (["eval", "mzv", "(1,2)", "--prec", "40"],
         CommandAst("eval", "mzv", (Index((1, 2)),), {"prec": 40})),
        (["scan", "stuffle", "--pmax", "100", "--pow", "2"],
         CommandAst("scan", "stuffle", (), {"pmax": 100, "pow": 2})),
        (["scan", "shift", "(2)", "--shift", "1", "--pmax", "100", "--pow", "2"],
         CommandAst("scan", "shift", (Index((2,)),), {"shift": 1, "pmax": 100, "pow": 2})),
        (["check", "csf-tau", "(2,1)", "--tau", "1/2"],
         CommandAst("check", "csf-tau", (Index((2, 1)),), {"tau": Fraction(1, 2)})),
        (["check", "two-cycle", "--deg", "4"], CommandAst("check", "two-cycle", (), {"deg": 4})),
        (["cache", "show"], CommandAst("cache", "show", (), {})),
    ]
    for argv, ast in cases:
        assert parse_command(argv) == ast, argv


def _render(ast):
    """Canonical argv of a syntax tree: options sorted, tuples joined by commas."""
    out = [ast.verb, ast.target, *map(str, ast.indices)]
    for key, val in sorted(ast.options.items()):
        out += [f"--{key}", ",".join(map(str, val)) if isinstance(val, tuple) else str(val)]
    return out


def test_render_round_trip():
    cases = [
        CommandAst("check", "harmonic", (Index((1,)), Index((2,))), {"orders": (2, 2)}),
        CommandAst("eval", "mzv", (Index((1, 2)),), {"prec": 40, "config": "cfg.txt"}),
        CommandAst("scan", "shift", (Index((2,)),), {"shift": 1, "pmax": 100, "pow": 2}),
        CommandAst("check", "csf-tau", (Index((2, 1)),), {"tau": Fraction(1, 2)}),
        CommandAst("check", "two-cycle", (), {"deg": 4}),
        CommandAst("cache", "show", (), {}),
    ]
    for ast in cases:
        assert parse_command(_render(ast)) == ast
    assert {f"--{key}" for ast in cases for key in ast.options} == set(OPTIONS)


def test_parse_errors_name_token_and_position():
    with pytest.raises(UsageError, match="position 1"):
        parse_command(["frobnicate", "harmonic"])
    with pytest.raises(UsageError, match="position 2"):
        parse_command(["check", "nonsense"])
    with pytest.raises(UsageError, match="position 3.*0"):
        parse_command(["check", "harmonic", "(0,2)", "(1)"])
    with pytest.raises(UsageError, match="position 3"):
        parse_command(["check", "harmonic", "bogus"])
    with pytest.raises(UsageError, match="--orders"):
        parse_command(["check", "harmonic", "(1)", "(1)", "--orders", "nope"])
    with pytest.raises(UsageError, match="needs a value"):
        parse_command(["check", "harmonic", "(1)", "(1)", "--prec"])
    with pytest.raises(UsageError, match="--prec"):
        parse_command(["eval", "mzv", "(2)", "--prec", "5"])
    # non-ASCII digits pass str.isdigit but not int()
    for option, value in (("--prec", "\u00b2"), ("--deg", "\u00b2"), ("--orders", "\u00b2,1")):
        with pytest.raises(UsageError, match=f"position 4: {option} expects an integer"):
            parse_command(["check", "two-cycle", option, value])
    with pytest.raises(UsageError):
        parse_command([])


def test_an_index_in_non_ascii_digits_is_a_usage_error(capsys):
    for literal in ("(\u0661,\u0662)", "(\u00b2)"):
        assert main(["eval", "mzv", literal]) == 2, literal
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"position 3: bad index literal {literal!r}" in captured.err
        assert "is not a positive integer" in captured.err


def test_report_line_format():
    code, text = run(parse_command(["check", "harmonic", "(1)", "(2)"]), CFG)
    assert code == 0
    line = text.strip()
    assert len(re.findall(r"residual=", line)) == 1
    assert re.search(r" (PASS|FAIL)$", line)


def test_exit_codes():
    code, _ = run(parse_command(["check", "csf", "(2)"]), CFG)
    assert code == 0
    code, text = run(parse_command(["check", "csf", "(1,1)"]), CFG)
    assert code == 1 and "error[check csf]" in text
    # the value at () is the factor exp(-(s+t) pi i/2) alone, with no
    # symmetric value for the two routes of rsmzv-routes to compare
    code, text = run(parse_command(["check", "rsmzv-routes", "()"]), CFG)
    assert code == 1
    assert "error[check rsmzv-routes]: the pairing route needs a non-empty index" in text
    assert main(["check", "harmonic", "(0,1)"]) == 2
    assert main(["eval", "mzv", "(2)"]) == 0


def test_check_targets_with_indices():
    for argv in [
        ["check", "reg", "(1,1)"],
        ["check", "antipode", "(2)"],
        ["check", "shifted-harmonic", "(1)", "(1)"],
        ["check", "shuffle", "(1)", "(2)"],
        ["check", "csf-shifted", "(2)"],
        ["check", "csf-star", "(2)"],
        ["check", "csf-nonstar", "(2)"],
        ["check", "csf-tau", "(2)", "--tau", "1/2"],
        ["check", "t-translation", "(1,2)"],
        ["check", "explicit-reg", "(1,1)"],
        ["check", "smzv-assoc", "(2)"],
        ["check", "rsmzv-routes", "(2)"],
        ["check", "two-cycle", "--deg", "3"],
        ["check", "three-cycle", "--deg", "3"],
        ["check", "t-part", "--deg", "3"],
        ["check", "gamma-factor", "--deg", "3"],
        ["check", "independence", "--deg", "3"],
        ["check", "duality-assoc", "--deg", "3"],
        ["check", "duality", "(2)", "--orders", "0,0"],
    ]:
        code, text = run(parse_command(argv), CFG)
        assert code == 0, (argv, text)
        assert "PASS" in text


def test_wrong_index_count():
    with pytest.raises(UsageError, match="expects 2"):
        run(parse_command(["check", "harmonic", "(1)"]), CFG)
    for argv in (["scan", "wolstenholme", "(2)"], ["cache", "show", "(2)"], ["eval", "mzv"]):
        with pytest.raises(UsageError, match="expects [01] index"):
            run(parse_command(argv), CFG)


def test_scan_and_eval():
    code, text = run(parse_command(["scan", "stuffle", "(1)", "(2)", "--pmax", "30"]), CFG)
    assert code == 0 and text.splitlines()[0] == "prime,relation,params,pass"
    code, text = run(parse_command(["scan", "wolstenholme", "--pmax", "50"]), CFG)
    assert code == 0
    code, text = run(parse_command(["scan", "shift", "(2)", "--shift", "1", "--pmax", "40"]), CFG)
    assert code == 0
    with pytest.raises(UsageError, match="even number"):
        run(parse_command(["scan", "stuffle", "(1)"]), CFG)
    code, text = run(parse_command(["eval", "stadic", "(1)", "--orders", "1,1"]), CFG)
    assert code == 0 and "s^1 t^0" in text
    code, text = run(parse_command(["eval", "mzv-star", "(1,2)"]), CFG)
    assert code == 0 and "value=" in text


def test_cache_commands(tmp_path):
    cfg = Config(prec=40, orders=(1, 1), cache_path=str(tmp_path / "c.txt"))
    run(parse_command(["eval", "mzv", "(2)"]), cfg)
    code, text = run(parse_command(["cache", "save"]), cfg)
    assert code == 0 and "saved" in text
    code, text = run(parse_command(["cache", "load"]), cfg)
    assert code == 0 and "loaded" in text
    code, text = run(parse_command(["cache", "show"]), cfg)
    assert code == 0 and "k=2;prec=40" in text
    code, text = run(parse_command(["cache", "clear"]), cfg)
    assert code == 0 and not (tmp_path / "c.txt").exists()
    code, text = run(parse_command(["cache", "load"]), cfg)
    assert code == 1  # the store is gone


def test_cache_persists_across_invocations(tmp_path, monkeypatch):
    from mzvkit.numeric import CACHE
    store = tmp_path / "store.txt"
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"cache_path={store}\n")
    monkeypatch.setenv("MZVKIT_CONFIG", str(cfgfile))
    assert main(["cache", "save"]) == 0 and store.exists()
    CACHE.clear()
    assert main(["eval", "mzv", "(3)"]) == 0
    assert "k=3;prec=40" in store.read_text()
    CACHE.clear()  # a fresh process: the store reloads on startup
    assert main(["cache", "show"]) == 0
    assert CACHE.get((3,), 40) is not None
    assert main(["cache", "clear"]) == 0
    assert not store.exists()


def test_config_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.txt"
    path.write_text("prec=50\norders=1,3\ncache_path=/tmp/x.txt\n")
    cfg = load_config(str(path))
    assert cfg.prec == 50 and cfg.orders == (1, 3)
    assert cfg.cache_path == "/tmp/x.txt"
    monkeypatch.setenv("MZVKIT_CONFIG", str(path))
    assert load_config(None).prec == 50
    monkeypatch.delenv("MZVKIT_CONFIG")
    assert load_config(None).prec == 40
    bad = tmp_path / "bad.txt"
    bad.write_text("prec 50\n")
    with pytest.raises(UsageError, match="line 1"):
        load_config(str(bad))
    unknown = tmp_path / "unknown.txt"
    unknown.write_text("colour=blue\n")
    with pytest.raises(UsageError, match="unknown key"):
        load_config(str(unknown))
    badint = tmp_path / "badint.txt"
    badint.write_text("prec=forty\n")
    with pytest.raises(UsageError, match="bad value"):
        load_config(str(badint))
    pool = tmp_path / "pool.txt"
    pool.write_text("prec=50\nworkers=2\n")
    with pytest.raises(UsageError, match="line 2: workers=2: scans run serially"):
        load_config(str(pool))
    monkeypatch.setenv("MZVKIT_CONFIG", str(badint))
    assert main(["eval", "mzv", "(2)"]) == 2
    monkeypatch.delenv("MZVKIT_CONFIG")


def test_degree_below_one_is_a_usage_error(capsys):
    # the modulus exponent and the window shift are refused in the same way
    commands = [["check", target, "--deg"] for target in (
        "two-cycle", "three-cycle", "duality-assoc", "t-part", "independence", "gamma-factor")]
    commands += [["scan", "stuffle", "--pow"], ["scan", "shift", "(1)", "--shift"]]
    for command in commands:
        for value in ("-2", "-1", "0"):
            assert main(command + [value]) == 2, (command, value)
            assert f"{command[-1]} must be at least 1" in capsys.readouterr().err


def test_a_tau_outside_minus_one_to_one_is_a_usage_error(capsys):
    # the rounding of a tau value grows as |tau|^depth against an absolute
    # tolerance: at --tau 10^10 a true identity read 3.5e-29 and FAILed
    for value in ("2", "-3/2"):
        assert main(["check", "csf-tau", "(1,2)", "--tau", value]) == 2, value
        assert "--tau must lie in [-1, 1]" in capsys.readouterr().err
    for value in ("1", "-1", "1/3"):
        ast = parse_command(["check", "csf-tau", "(1,2)", "--tau", value])
        assert ast.options["tau"] == Fraction(value)


def test_scan_that_checked_no_prime_fails():
    for argv in (["scan", "wolstenholme", "--pmax", "-5"],
                 ["scan", "stuffle", "--pmax", "3"],
                 ["scan", "shift", "(2)", "--pmax", "4"]):
        code, text = run(parse_command(argv), CFG)
        assert code == 1, argv
        assert text.splitlines()[-1].startswith("total,0,")


def test_checks_call_the_function_bound_on_the_module_when_they_run(monkeypatch):
    monkeypatch.setattr(stadic, "check_harmonic", lambda *args: mp.mpf(2))
    monkeypatch.setattr(associator, "check_t_part", lambda *args: mp.mpf(3))
    code, text = run(parse_command(["check", "harmonic", "(1)", "(2)"]), CFG)
    assert code == 1 and "residual=2.0" in text
    code, text = run(parse_command(["check", "t-part", "--deg", "2"]), CFG)
    assert code == 1 and text.count("residual=3.0") == 2
    monkeypatch.setattr(numeric, "mzv", lambda k, prec: mp.mpf(7))
    assert run(parse_command(["eval", "mzv", "(2)"]), CFG) == (0, "mzv (2) prec=40 value=7.0")
    monkeypatch.setattr(finite, "scan_wolstenholme", lambda *args: finite.ScanReport("w", ""))
    code, text = run(parse_command(["scan", "wolstenholme"]), CFG)
    assert code == 1 and text.splitlines()[-1].startswith("total,0,")


def test_nan_value_in_the_store_fails_the_check(tmp_path, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"cache_path={tmp_path / 'absent.txt'}\n")
    saved = dict(numeric.CACHE.records)
    try:
        numeric.CACHE.put((2,), 40, "nan")
        code = main(["check", "harmonic", "(1)", "(2)", "--orders", "2,2", "--config", str(cfg)])
        out = capsys.readouterr().out
    finally:
        numeric.CACHE.records.clear()
        numeric.CACHE.records.update(saved)
    assert code == 1
    assert re.search(r"residual=nan tol=\S+ FAIL$", out.strip())


@pytest.mark.parametrize("command", [["three-cycle", "--deg", "4"],
                                     ["duality", "(1,2)", "--orders", "1,0"],
                                     ["rsmzv-routes", "(1,2)", "--orders", "1,0"],
                                     ["smzv-assoc", "(1,2)", "--orders", "1,0"]],
                         ids=["whole-series", "pairing", "rsmzv-routes", "smzv-assoc"])
def test_nan_value_in_the_store_fails_an_associator_check(tmp_path, capsys, command):
    # the associator reads the store's ints: a value that is not a finite
    # decimal is NaN through the recursions, the series and the split product,
    # and through the Gaussian grids, the evaluator and the 2 pi i division
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"cache_path={tmp_path / 'absent.txt'}\n")
    saved = dict(numeric.CACHE.records)
    clear_caches()
    try:
        numeric.CACHE.put((2,), 40, "nan")
        code = main(["check", *command, "--config", str(cfg)])
        out = capsys.readouterr().out
    finally:
        numeric.CACHE.records.clear()
        numeric.CACHE.records.update(saved)
        clear_caches()
    assert code == 1
    assert re.search(r"residual=nan tol=\S+ FAIL$", out.strip())


def test_a_config_may_name_only_the_one_worker_every_scan_uses(tmp_path, capsys):
    # the config that the benchmark (perfbench/run.py) writes for each operation
    cfg, store = tmp_path / "config.txt", str(tmp_path / "store.txt")
    cfg.write_text(f"prec=40\norders=2,2\nworkers=1\ncache_path={store}\n")
    assert load_config(str(cfg)) == Config(prec=40, orders=(2, 2), cache_path=store)
    cfg.write_text("cache_path=\n")
    assert load_config(str(cfg)) == Config(cache_path="")
    assert main(["scan", "stuffle", "(1)", "(2)", "--pmax", "40", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("total,10,passed,10,failed,0\n") and err == ""
    for value in ("2", "0"):
        cfg.write_text(f"cache_path=\n\nworkers={value}\n")
        assert main(["scan", "stuffle", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage error: config line 3: workers={value}: ")
        assert "scans run serially" in err


def test_store_io_errors_exit_1_with_a_cache_error(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"cache_path={tmp_path}\n")   # the store is a directory
    assert main(["eval", "mzv", "(2)", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error[cache]: ") and "Is a directory" in err
    store = tmp_path / "store.txt"
    store.write_text("")
    cfg.write_text(f"cache_path={store}\n")

    def no_save(path):
        raise OSError("disk full")

    saved = dict(numeric.CACHE.records)
    monkeypatch.setattr(numeric.CACHE, "save", no_save)
    try:
        numeric.CACHE.clear()
        assert main(["eval", "mzv", "(3)", "--config", str(cfg)]) == 1
    finally:
        numeric.CACHE.records.clear()
        numeric.CACHE.records.update(saved)
    out, err = capsys.readouterr()
    assert out.startswith("mzv (3) prec=40 value=1.2020569") and err == "error[cache]: disk full\n"


def test_a_malformed_store_record_is_reported_with_its_reason(tmp_path, capsys):
    store = tmp_path / "store.txt"
    store.write_text("k=1;prec=40;value=1.5\n")      # (1) is not admissible
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"cache_path={store}\n")
    saved = dict(numeric.CACHE.records)
    try:
        assert main(["eval", "mzv", "(2)", "--config", str(cfg)]) == 1
    finally:
        numeric.CACHE.records.clear()
        numeric.CACHE.records.update(saved)
    out, err = capsys.readouterr()
    assert out == "" and err == ("error[cache]: line 1: malformed cache record "
                                 "'k=1;prec=40;value=1.5': not a value that mzv stores\n")


def test_only_a_scan_runs_without_reading_the_value_store(tmp_path, capsys):
    store = tmp_path / "store.txt"
    store.write_text("k=1;prec=40;value=1.5\n")      # every load of it fails
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"cache_path={store}\n")
    saved = dict(numeric.CACHE.records)
    try:
        assert main(["scan", "wolstenholme", "--pmax", "20", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("prime,") and err == ""
        for argv in (["eval", "mzv", "(2)"], ["check", "harmonic", "(1)", "(2)"],
                     ["cache", "show"]):
            assert main(argv + ["--config", str(cfg)]) == 1, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error[cache]: line 1: malformed cache record")
        assert store.read_text() == "k=1;prec=40;value=1.5\n"
        # clearing is what a store that does not load needs
        assert main(["cache", "clear", "--config", str(cfg)]) == 0
        assert capsys.readouterr() == ("cache cleared\n", "")
    finally:
        numeric.CACHE.records.clear()
        numeric.CACHE.records.update(saved)
    assert not store.exists()


def test_module_docstring_names_exactly_the_commands_and_options():
    grammar = cli.__doc__.split("::\n\n")[1].split("\n\n")[0]
    rules = dict(re.findall(r"^    (\S+) +:= (.*(?:\n {13}\|.*)*)", grammar, re.M))
    assert {verb: set(re.findall(r"[\w-]+", rules[verb])) for verb in COMMANDS} == {
        verb: set(targets) for verb, targets in COMMANDS.items()}
    assert re.findall(r"--\w+", rules["option"]) == list(OPTIONS)
