#!/usr/bin/env python3
"""Doc-integrity gate: keep the markdown honest.

Three checks, all stdlib-only:

1. Links: every relative markdown link in README.md, docs/, and
   bench/NOTES.md resolves to an existing file or directory (external
   http(s)/mailto links and pure #anchors are skipped; an anchor on a
   local link is checked against the target file's headings).

2. Snippets: every fenced code block tagged ``cpp`` in docs/*.md is a
   self-contained translation unit and must compile (`-fsyntax-only
   -std=c++17`) against the library headers. By default that is the
   in-tree `src/` layout; CI additionally re-runs against the
   installed-header prefix produced for the examples/installed-consumer
   smoke (the include layout is identical by design, so docs stay
   correct for external consumers too). Blocks tagged anything else
   (``sh``, ``text``, ``cmake``...) are illustrative and not compiled.

3. Env vars: the README's `EFFACT_*` environment-variable table matches
   the getenv/os.environ call sites under src/, bench/, and examples/
   in both directions — no documented-but-dead variable, no
   implemented-but-undocumented one. (CMake option names like
   EFFACT_SANITIZE are cache variables, not process environment, and
   are out of scope by construction: only getenv-style reads count.)

Exit status: 0 clean, 1 any finding. Usage:

    tools/check_docs.py [--include DIR] [--compiler CXX]
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
# Direct getenv plus the repo's typed wrapper (envSize takes the
# variable name as a string literal).
GETENV_RE = re.compile(r'(?:getenv|envSize)\s*\(\s*"(EFFACT_[A-Z_]+)"')
PY_ENV_RE = re.compile(r'os\.environ\.get\("(EFFACT_[A-Z_]+)"')
TABLE_ROW_RE = re.compile(r"^\|\s*`(EFFACT_[A-Z_]+)`\s*\|")


def md_files():
    files = [os.path.join(REPO, "README.md"),
             os.path.join(REPO, "bench", "NOTES.md")]
    docs = os.path.join(REPO, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return [f for f in files if os.path.isfile(f)]


def heading_anchors(path):
    """GitHub-style anchors for every markdown heading in `path`."""
    anchors = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.startswith("#"):
                continue
            text = line.lstrip("#").strip().lower()
            text = re.sub(r"[`*]", "", text)
            text = re.sub(r"[^\w\- ]", "", text)
            anchors.add(text.replace(" ", "-"))
    return anchors


def check_links():
    failures = []
    for path in md_files():
        base = os.path.dirname(path)
        rel = os.path.relpath(path, REPO)
        in_fence = False
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if FENCE_RE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                for target in LINK_RE.findall(line):
                    if target.startswith(("http://", "https://",
                                          "mailto:")):
                        continue
                    file_part, _, anchor = target.partition("#")
                    dest = (os.path.normpath(os.path.join(base, file_part))
                            if file_part else path)
                    if not os.path.exists(dest):
                        failures.append(
                            f"{rel}:{lineno}: broken link {target!r}")
                    elif anchor and dest.endswith(".md"):
                        if anchor not in heading_anchors(dest):
                            failures.append(
                                f"{rel}:{lineno}: link {target!r} "
                                f"anchor #{anchor} not found")
    return failures


def cpp_snippets(path):
    """(start_line, code) for each ```cpp fence in `path`."""
    snippets, code, start, lang = [], None, 0, None
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            m = FENCE_RE.match(line)
            if m and code is None:
                lang, start, code = m.group(1), lineno, []
            elif m:
                if lang == "cpp":
                    snippets.append((start, "".join(code)))
                code = None
            elif code is not None:
                code.append(line)
    return snippets


def check_snippets(include_dirs, compiler):
    failures = []
    docs = os.path.join(REPO, "docs")
    targets = [p for p in md_files() if p.startswith(docs + os.sep)]
    count = 0
    for path in targets:
        rel = os.path.relpath(path, REPO)
        for start, code in cpp_snippets(path):
            count += 1
            with tempfile.NamedTemporaryFile(
                    mode="w", suffix=".cc", delete=False) as tu:
                tu.write(code)
                tu_path = tu.name
            cmd = [compiler, "-std=c++17", "-fsyntax-only"]
            for inc in include_dirs:
                cmd += ["-I", inc]
            cmd.append(tu_path)
            proc = subprocess.run(cmd, capture_output=True, text=True)
            os.unlink(tu_path)
            if proc.returncode != 0:
                failures.append(
                    f"{rel}:{start}: cpp snippet does not compile:\n"
                    f"{proc.stderr.strip()}")
    if not failures:
        print(f"ok   {count} cpp snippet(s) compile "
              f"(-I {' -I '.join(include_dirs)})")
    return failures


def check_env_table():
    # Only the environment-variable table counts: the CMake-option
    # table also lists `EFFACT_*` names, but those are cache variables,
    # not process environment.
    documented = set()
    in_env_table = False
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("|"):
                if "Environment variable" in line:
                    in_env_table = True
                elif in_env_table:
                    m = TABLE_ROW_RE.match(line)
                    if m:
                        documented.add(m.group(1))
            else:
                in_env_table = False

    implemented = set()
    for top in ("src", "bench", "examples"):
        for dirpath, _, names in os.walk(os.path.join(REPO, top)):
            for name in names:
                if not name.endswith((".cc", ".h", ".py")):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as f:
                    text = f.read()
                implemented |= set(GETENV_RE.findall(text))
                implemented |= set(PY_ENV_RE.findall(text))

    failures = []
    for var in sorted(implemented - documented):
        failures.append(
            f"README.md env-var table: {var} is read in the code but "
            "undocumented")
    for var in sorted(documented - implemented):
        failures.append(
            f"README.md env-var table: {var} is documented but no "
            "getenv call reads it")
    if not failures:
        print(f"ok   env-var table: {len(documented)} variables, "
              "both directions")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument(
        "--include", action="append", default=[],
        help="header dir for snippet compiles (default: <repo>/src; "
        "repeatable — CI also passes the installed prefix)")
    parser.add_argument("--compiler", default="c++")
    args = parser.parse_args()
    include_dirs = args.include or [os.path.join(REPO, "src")]

    failures = check_links()
    if not failures:
        print(f"ok   markdown links resolve ({len(md_files())} files)")
    failures += check_snippets(include_dirs, args.compiler)
    failures += check_env_table()

    for failure in failures:
        print(f"FAIL: {failure}")
    print("doc integrity:", "FAILED" if failures else "clean")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
