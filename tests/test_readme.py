"""The README's sample certificate and the commands documented with it:
each command, run on that JSON, exits with the code its comment gives."""

import re
import shlex
from pathlib import Path

from jetideals.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _documented():
    """(the certificate JSON, [(argv, exit code)]) from the README."""
    text = README.read_text(encoding="utf-8")
    cert = re.search(r"certificates are\n\n```json\n(.*?)```", text, re.S)
    runs = [(shlex.split(command), int(code)) for command, code in
            re.findall(r"^jetideals (.*--cert cert\.json.*?)\s+# exit (\d+)$",
                       text, re.M)]
    return cert.group(1), runs


def test_documented_certificate_commands_exit_as_documented(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    cert, runs = _documented()
    (tmp_path / "cert.json").write_text(cert)
    monkeypatch.chdir(tmp_path)
    assert len(runs) == 4
    outcomes = []
    for argv, _ in runs:
        outcomes.append(main(argv))
        capsys.readouterr()
    assert outcomes == [code for _, code in runs]
