"""Planted bugs: the tier-1 suite's kill table.

    python tools/mutants.py

Each row of MUTANTS is (name, file, old text, new text): one bug, planted
by replacing the one occurrence of the old text in the file.  For each row
the script copies the repository to a temporary directory, plants the bug
there, and runs the tier-1 suite with -x.  The row is killed when a test
fails and survives when the suite passes; the first failing test is
printed.  A row whose old text does not occur exactly once in its file is
reported as stale, never skipped.  An unmodified copy runs first, so a
kill means the planted bug failed a test that passes without it.

Exit status: 0 when every row is killed, 1 when a row survives or is
stale, 2 when the unmodified suite fails.  Kept out of the pytest suite:
each row runs the suite once, about 5-25 s.  A change that adds a check
adds the bug it catches here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
TIMEOUT_S = 900

MUTANTS = (
    ("decode-tie-key-sign-flipped", "src/treekd/linear_code.py",
     "key=lambda e: (-e.bit_count(), e)",
     "key=lambda e: (-e.bit_count(), -e)"),
    ("decode-range-check-dropped", "src/treekd/linear_code.py",
     "if word < 0 or word >> code.m:",
     "if False:"),
    ("index-of-table-check-dropped", "src/treekd/linear_code.py",
     "if 0 <= index < len(code.codewords) and code.codewords[index] == codeword:",
     "if 0 <= index < len(code.codewords):"),
    ("index-of-negative-check-dropped", "src/treekd/linear_code.py",
     "if 0 <= index < len(code.codewords) and",
     "if index < len(code.codewords) and"),
    ("run-block-check-and-code-positions-swapped", "src/treekd/protocol.py",
     'checks[agent] = "".join([bits[i] for i in check_positions])\n'
     '        codes[agent] = int("".join([bits[i] for i in code_positions]), 2)',
     'checks[agent] = "".join([bits[i] for i in code_positions])\n'
     '        codes[agent] = int("".join([bits[i] for i in check_positions]), 2)'),
    ("decide-abort-at-delta", "src/treekd/protocol.py",
     "max(fractions) * limit.denominator > limit.numerator * m",
     "max(fractions) * limit.denominator >= limit.numerator * m"),
    ("code-broadcast-unmasked", "src/treekd/protocol.py",
     'format(masked, f"0{code.m}b")',
     'format(codeword, f"0{code.m}b")'),
    ("run-block-decides-on-2m-check-bits", "src/treekd/protocol.py",
     "decide_abort(check_words, m, leader, config.delta)",
     "decide_abort(check_words, 2 * m, leader, config.delta)"),
    ("render-choice-seq-shifted", "src/treekd/subroutine.py",
     "seqs = range(stride - 1, end, stride)",
     "seqs = range(stride, end + 1, stride)"),
    ("mask-word-shift-reversed", "src/treekd/protocol.py",
     "mask_words = [w << 1 | m for w, m in zip(mask_words, masks)]",
     "mask_words = [w | m << r for w, m in zip(mask_words, masks)]"),
    ("parser-second-announcement-check-dropped", "src/treekd/transcript_io.py",
     'if kind == "announcement" and sender in pending:',
     "if False:"),
    ("parser-check-positions-order-check-dropped", "src/treekd/transcript_io.py",
     "if any(a >= b for a, b in zip(positions, positions[1:])):",
     "if False:"),
    ("parser-abort-agents-order-check-dropped", "src/treekd/transcript_io.py",
     "if list(out) != sorted(out):",
     "if False:"),
    ("config-blocks-range-check-dropped", "src/treekd/config_io.py",
     'if key == "blocks" and value < 1:',
     "if False:"),
    ("config-repeated-param-check-dropped", "src/treekd/config_io.py",
     "if key in param_lines:",
     "if False:"),
    ("config-error-sort-dropped", "src/treekd/config_io.py",
     "for line, message in sorted(errors)]",
     "for line, message in errors]"),
    ("config-leader-range-check-dropped", "src/treekd/config_io.py",
     "if n and not 0 <= leader < n:",
     "if False:"),
    ("kruskal-components-by-vertex", "src/treekd/graph_core.py",
     "components.setdefault(uf.find(v), set()).add(v)",
     "components.setdefault(v, set()).add(v)"),
    ("line-split-at-unicode-boundaries", "src/treekd/config_io.py",
     '    lines = text.replace("\\r\\n", "\\n").replace("\\r", "\\n").split("\\n")\n'
     "    if not lines[-1]:\n"
     "        lines.pop()\n"
     "    return lines\n",
     "    return text.splitlines()\n"),
    ("run-rounds-leader-parity-dropped", "src/treekd/protocol.py",
     "base = parity[leader]",
     "base = 0"),
    ("run-rounds-parity-b-copy-dropped", "src/treekd/protocol.py",
     "parity[v] = parity[parent] ^ a ^ b",
     "parity[v] = parity[parent] ^ a"),
    ("run-rounds-leader-copy-sides-swapped", "src/treekd/protocol.py",
     "words[e.key][int(leader == e.b)]",
     "words[e.key][int(leader == e.a)]"),
    ("eve-count-caps-record-degree-at-3", "src/treekd/eve_analysis.py",
     "len(masked) - 1 if valid else -1",
     "min(len(masked), 3) - 1 if valid else -1"),
    ("eve-record-table-keyed-on-sender", "src/treekd/eve_analysis.py",
     "constraints = checked.get(id(masked))\n"
     "        if constraints is None:\n"
     "            incident = tree.incident_keys(agent)\n"
     "            valid = len(incident) > 1 and masked.keys() == incident\n"
     "            constraints = checked[id(masked)] =",
     "constraints = checked.get(agent)\n"
     "        if constraints is None:\n"
     "            incident = tree.incident_keys(agent)\n"
     "            valid = len(incident) > 1 and masked.keys() == incident\n"
     "            constraints = checked[agent] ="),
    ("parser-fast-test-skips-second-announcement", "src/treekd/transcript_io.py",
     'if seq != expected or (kind == "announcement" and sender in pending) or (',
     "if seq != expected or ("),
    ("parser-open-round-admits-check-positions", "src/treekd/transcript_io.py",
     "                open_round and kind not in _ROUND_KINDS\n            ):",
     '                open_round and kind not in _ROUND_KINDS | {"check_positions"}\n'
     "            ):"),
    ("edge-bits-read-from-first-payload", "src/treekd/transcript_io.py",
     "known = edge_lists[cleared] = (keys, offsets)\n"
     "    keys, offsets = known\n"
     "    return dict(zip(keys, [_BITS[text[i]] for i in offsets]))",
     "known = edge_lists[cleared] = (keys, [_BITS[text[i]] for i in offsets])\n"
     "    keys, bits = known\n"
     "    return dict(zip(keys, bits))"),
    ("edge-list-key-clears-every-1", "src/treekd/transcript_io.py",
     'cleared = text.replace(":1", ":0")',
     'cleared = text.replace("1", "0")'),
    ("analyze-verdict-text-keyed-on-pass", "src/treekd/cli.py",
     "verdict = verdicts.get(count)\n"
     "            if verdict is None:\n"
     "                entropy = eve_analysis.secret_entropy(count)\n"
     "                verdict = verdicts[count] =",
     "verdict = verdicts.get(count == 2)\n"
     "            if verdict is None:\n"
     "                entropy = eve_analysis.secret_entropy(count)\n"
     "                verdict = verdicts[count == 2] ="),
    ("analyze-prints-rounds-before-an-error", "src/treekd/cli.py",
     "        _certify_block(b, transcript, config)\n",
     '        print("\\n".join(report), file=out)\n'
     "        _certify_block(b, transcript, config)\n"),
    ("analyze-block-round-count-check-dropped", "src/treekd/cli.py",
     '    order = [(("terminal_choice",), leader)] * (2 * m)\n'
     '    order += [(("check_positions",), leader)]\n',
     '    order = [(("check_positions",), leader)]\n'),
    ("analyze-choice-slots-one-short", "src/treekd/cli.py",
     "* (2 * m)",
     "* (2 * m - 1)"),
    ("analyze-choice-terminal-check-dropped", "src/treekd/cli.py",
     "if payload not in terminals:",
     "if False:"),
    ("analyze-trailing-message-check-dropped", "src/treekd/cli.py",
     "if len(sequence) > len(order):",
     "if False:"),
    ("analyze-block-end-names-first-line", "src/treekd/cli.py",
     "raise error(sequence[-1][0], want,",
     "raise error(sequence[0][0], want,"),
    ("analyze-block-sender-order-check-dropped", "src/treekd/cli.py",
     "if kind not in kinds or got != sender:",
     "if kind not in kinds:"),
    ("analyze-check-values-length-check-dropped", "src/treekd/cli.py",
     "if len(payload) != m:",
     "if False:"),
    ("analyze-decides-on-agent-count-bits", "src/treekd/cli.py",
     "protocol.decide_abort(values, m, leader, config.delta)",
     "protocol.decide_abort(values, len(values), leader, config.delta)"),
    ("analyze-abort-accepted-without-mismatch", "src/treekd/cli.py",
     'elif kind == "code_broadcast" and len(payload) == m:',
     'elif kind == "abort" or len(payload) == m:'),
    ("analyze-abort-payload-comparison-dropped", "src/treekd/cli.py",
     'if kind == "abort" and payload == mismatch:',
     'if kind == "abort":'),
    ("plan-total-weight-bound-dropped", "src/treekd/cli.py",
     "if bound and total.denominator >= bound:",
     "if False:"),
)


def run_tier1(tree: Path):
    """(passed, first failing test or None, seconds) of tier-1 -x in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s", time.perf_counter() - start
    failed = [
        line.split(" - ")[0].split(" ", 1)[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    first = failed[0] if failed else (None if proc.returncode == 0 else proc.stdout[-300:])
    return proc.returncode == 0, first, time.perf_counter() - start


def copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", "*.egg-info"
    )
    return Path(shutil.copytree(ROOT, dest, ignore=ignore))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="treekd-mutants-") as tmp:
        passed, first, seconds = run_tier1(copy_tree(Path(tmp) / "unmodified"))
        if not passed:
            print(f"unmodified suite fails ({first}); no row can be judged")
            return 2
        print(f"unmodified   suite passes ({seconds:.1f} s)")
        bad = 0
        for i, (name, file, old, new) in enumerate(MUTANTS):
            text = (ROOT / file).read_text()
            if text.count(old) != 1:
                print(f"STALE        {name}: old text occurs {text.count(old)} times in {file}")
                bad += 1
                continue
            tree = copy_tree(Path(tmp) / f"row{i}")
            (tree / file).write_text(text.replace(old, new))
            passed, first, seconds = run_tier1(tree)
            if passed:
                print(f"SURVIVED     {name} ({seconds:.1f} s)")
                bad += 1
            else:
                print(f"killed       {name} by {first} ({seconds:.1f} s)")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} rows killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
