import re
from fractions import Fraction

import pytest
from mpmath import mp

from mzvkit import associator, finite, numeric, stadic
from mzvkit.cli import (
    CommandAst, Config, UsageError, load_config, main, parse_command, render,
    run,
)
from mzvkit.indices import Index

CFG = Config(prec=40, orders=(1, 1), cache_path="", workers=1)


def test_parse_examples():
    ast = parse_command(["check", "harmonic", "(1)", "(2)", "--orders", "2,2"])
    assert ast == CommandAst("check", "harmonic", (Index((1,)), Index((2,))),
                             {"orders": (2, 2)})
    ast = parse_command(["eval", "mzv", "(1,2)", "--prec", "40"])
    assert ast == CommandAst("eval", "mzv", (Index((1, 2)),), {"prec": 40})
    ast = parse_command(["scan", "stuffle", "--pmax", "100", "--pow", "2"])
    assert ast.options == {"pmax": 100, "pow": 2}
    ast = parse_command(["check", "csf-tau", "(2,1)", "--tau", "1/2"])
    assert ast.options["tau"] == Fraction(1, 2)


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
    with pytest.raises(UsageError):
        parse_command([])


def test_render_round_trip():
    cases = [
        CommandAst("check", "harmonic", (Index((1,)), Index((2,))), {"orders": (2, 2)}),
        CommandAst("eval", "mzv", (Index((1, 2)),), {"prec": 40}),
        CommandAst("scan", "shift", (Index((2,)),), {"shift": 1, "pmax": 100, "pow": 2}),
        CommandAst("check", "csf-tau", (Index((2, 1)),), {"tau": Fraction(1, 2)}),
        CommandAst("check", "two-cycle", (), {"deg": 4}),
        CommandAst("cache", "show", (), {}),
    ]
    for ast in cases:
        assert parse_command(render(ast)) == ast


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
    cfg = Config(prec=40, orders=(1, 1), cache_path=str(tmp_path / "c.txt"), workers=1)
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
    path.write_text("prec=50\norders=1,3\nworkers=2\ncache_path=/tmp/x.txt\n")
    cfg = load_config(str(path))
    assert cfg.prec == 50 and cfg.orders == (1, 3) and cfg.workers == 2
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
    monkeypatch.setenv("MZVKIT_CONFIG", str(badint))
    assert main(["eval", "mzv", "(2)"]) == 2
    monkeypatch.delenv("MZVKIT_CONFIG")


def test_degree_below_one_is_a_usage_error(capsys):
    for target in ("two-cycle", "three-cycle", "duality-assoc", "t-part", "independence",
                   "gamma-factor"):
        for deg in ("-1", "0"):
            assert main(["check", target, "--deg", deg]) == 2, (target, deg)
            assert "--deg must be at least 1" in capsys.readouterr().err


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


def test_nan_value_in_the_store_fails_the_check(tmp_path, capsys):
    cfg = tmp_path / "config.txt"
    cfg.write_text(f"cache_path={tmp_path / 'absent.txt'}\nworkers=1\n")
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


def test_scan_reports_a_serial_fallback_on_stderr(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise OSError("no process pool here")

    def scan(workers):
        cfg = tmp_path / f"config{workers}.txt"
        cfg.write_text(f"cache_path=\nworkers={workers}\n")
        code = main(["scan", "stuffle", "(1)", "(2)", "--pmax", "40", "--config", str(cfg)])
        return code, capsys.readouterr()

    code, serial = scan(1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert scan(2) == (code, serial._replace(err="# scan ran serially: OSError: no process pool here\n"))
    assert code == 0 and serial.err == ""
    report = finite.scan_stuffle([((1,), (2,))], 40, 1, workers=2)
    assert report.serial_reason == "OSError: no process pool here"
    assert report.results == finite.scan_stuffle([((1,), (2,))], 40, 1).results
    assert finite.scan_stuffle([((1,), (2,))], 40, 1).serial_reason == ""
