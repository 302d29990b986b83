"""Compare the `virfock verify all --no-timestamp` reports of this checkout
with those of a base commit, in json and csv at both CI seeds.

    python .github/compare_reports.py <base-ref>

The base commit is checked out in a temporary `git worktree`.  For each
seed and format the script prints "byte-identical", or the ids of the
checks whose report entries differ, as Markdown; it appends them to
$GITHUB_STEP_SUMMARY when that is set.  It exits 0 either way: a report
may move on purpose.
"""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile

SEEDS = (12345, 20091124)
FORMATS = ("json", "csv")


def report(root, seed, fmt):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-m", "virfock", "verify", "all", "--no-timestamp",
           "--seed", str(seed), "--format", fmt]
    # exit code 1 only means a check failed; its report is still compared
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True).stdout


def entries(text, fmt):
    """Report entry per suite/check id, plus everything else under ""."""
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return {f"{r['suite']}/{r['id']}": r for r in rows}
    out = {}
    try:
        suites = json.loads(text)
    except ValueError:
        return {"": text}
    for suite in suites:
        for check in suite.pop("checks", []):
            out[f"{suite.get('suite')}/{check.get('id')}"] = check
    out[""] = suites
    return out


def differing(old, new, fmt):
    old, new = entries(old, fmt), entries(new, fmt)
    ids = [k for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)]
    return [k or "(fields outside the checks)" for k in ids] or ["(layout only)"]


def main(base):
    head = subprocess.run(["git", "rev-parse", "--show-toplevel"], check=True,
                          capture_output=True, text=True).stdout.strip()
    lines = [f"### `verify all --no-timestamp` against {base}", ""]
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "base")
        subprocess.run(["git", "worktree", "add", "--detach", tree, base],
                       check=True, capture_output=True)
        try:
            for seed in SEEDS:
                for fmt in FORMATS:
                    old, new = report(tree, seed, fmt), report(head, seed, fmt)
                    verdict = ("byte-identical" if old == new else
                               "differs in " + ", ".join(differing(old, new, fmt)))
                    lines.append(f"- seed {seed}, {fmt}: {verdict}")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", tree],
                           check=False, capture_output=True)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(text)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
