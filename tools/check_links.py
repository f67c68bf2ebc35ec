#!/usr/bin/env python3
"""Intra-repo markdown link checker (stdlib only).

Scans markdown files for inline links/images (``[text](target)`` and
``<img src="...">``) and verifies that every *relative* target resolves to
a file inside the repository.  External schemes (``http(s)``, ``mailto``)
and pure in-page anchors (``#heading``) are skipped; a relative target
with an anchor is checked for file existence only.  Text inside an
inline code span (between backticks) is literal, not a link, and is not
scanned.

Used by the CI docs lane so the generated gallery (``EXPERIMENTS.md``,
``artifacts/*.md``, ``docs/*.md``) can never ship broken references::

    python tools/check_links.py [FILE_OR_DIR ...]   # default: repo root

Exit status 1 when any link is broken, listing every offender.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: Inline markdown links/images; stops at the first unescaped ")".
MD_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Raw HTML images occasionally used in markdown.
HTML_SRC = re.compile(r"""<img[^>]+src=["']([^"']+)["']""")
#: Inline code spans: a backtick run, text, the same run, on one line.
CODE_SPAN = re.compile(r"(`+)[^`\n]+?\1")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://", "#")

#: Directories never scanned for markdown files.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules",
             ".hypothesis", ".benchmarks"}


def iter_markdown_files(roots: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        for path in sorted(root.rglob("*.md")):
            if not any(part in SKIP_DIRS for part in path.parts):
                files.append(path)
    return files


def links_in(text: str) -> List[str]:
    text = CODE_SPAN.sub("", text)
    return MD_LINK.findall(text) + HTML_SRC.findall(text)


def broken_links(path: Path) -> List[Tuple[str, str]]:
    """(target, reason) pairs for every broken relative link in ``path``."""
    broken = []
    for target in links_in(path.read_text(encoding="utf-8")):
        if target.startswith(SKIP_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            broken.append((target, f"missing file {resolved}"))
    return broken


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(".")]
    missing_roots = [root for root in roots if not root.exists()]
    if missing_roots:
        for root in missing_roots:
            print(f"error: no such file or directory: {root}",
                  file=sys.stderr)
        return 2
    files = iter_markdown_files(roots)
    failures = 0
    for path in files:
        for target, reason in broken_links(path):
            print(f"{path}: broken link '{target}' ({reason})",
                  file=sys.stderr)
            failures += 1
    print(f"checked {len(files)} markdown file(s): "
          f"{failures or 'no'} broken link(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
