"""``python -m repro.serve``: the same five service flags on every
subcommand, checked by the service itself (a bad value exits 2)."""

import asyncio
import inspect
import re

import pytest

from repro import envvars
from repro.serve import __main__ as cli
from repro.serve import chaos, net

SUBCOMMANDS = ("traffic", "chaos", "listen")

#: Each flag with a value the service must refuse.
BAD_VALUES = {
    "--queue": "0",
    "--batch": "0",
    "--deadline": "0",
    "--breaker-threshold": "0",
    "--breaker-cooldown": "-1",
}


def _argv(command, tmp_path, *flags):
    argv = [command, *flags]
    if command == "listen":
        return argv + ["--port", "0"]
    argv += ["--requests", "4", "--universe", "2", "--budget", "1000"]
    if command == "chaos":
        argv += ["--output", str(tmp_path / "chaos.json")]
    return argv


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("flag", sorted(BAD_VALUES))
def test_bad_setting_exits_2_naming_the_flag(command, flag, tmp_path,
                                             capsys):
    argv = _argv(command, tmp_path, flag, BAD_VALUES[flag])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"({flag})" in err
    assert not (tmp_path / "chaos.json").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_lists_the_five_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for flag in BAD_VALUES:
        assert flag in out
    assert "REPRO_" not in out


def test_top_level_help_names_only_registered_variables(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    out = capsys.readouterr().out
    named = set(re.findall(r"REPRO_[A-Z_]+", out))
    assert named == {"REPRO_FAULT_SPEC"}
    assert named <= set(envvars.registered_names())


def test_listen_hands_its_flags_to_the_service(monkeypatch):
    services = []
    summaries = []

    class Recording(net.PredictionService):
        def __init__(self, **settings):
            super().__init__(**settings)
            services.append(self)

    real_serve_forever = net.serve_forever

    async def serve_until_ready(host, port, ready=None, **settings):
        ready = asyncio.Event()
        task = asyncio.ensure_future(
            real_serve_forever(host, port, ready, **settings))
        await asyncio.wait_for(ready.wait(), timeout=60)
        summaries.append(services[0].summary())
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    monkeypatch.setattr(net, "PredictionService", Recording)
    monkeypatch.setattr(net, "serve_forever", serve_until_ready)
    assert cli.main(["listen", "--port", "0", "--queue", "7",
                     "--batch", "3", "--deadline", "2.5",
                     "--breaker-threshold", "4",
                     "--breaker-cooldown", "0.25"]) == 0
    [summary] = summaries
    assert {key: summary[key] for key in (
        "queue_limit", "batch_limit", "deadline", "breaker_threshold",
        "breaker_cooldown")} == {
        "queue_limit": 7, "batch_limit": 3, "deadline": 2.5,
        "breaker_threshold": 4, "breaker_cooldown": 0.25}


def test_chaos_writes_no_file_by_default():
    args = cli._build_parser().parse_args(["chaos"])
    assert args.output is None
    default = inspect.signature(chaos.run_chaos).parameters["output"]
    assert default.default is None


@pytest.mark.parametrize("command,defaults", [
    ("traffic", (256, 32, None, 5, 5.0)),
    ("listen", (256, 32, None, 5, 5.0)),
    ("chaos", (12, 24, 8.0, 3, 0.5))])
def test_flag_defaults(command, defaults):
    args = cli._build_parser().parse_args([command])
    assert tuple(cli._settings(args).values()) == defaults
