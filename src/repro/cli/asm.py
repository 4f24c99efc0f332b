"""``repro-asm``: assemble GA64 source and print a listing.

Examples::

    repro-asm prog.s                # listing to stdout
    repro-asm prog.s --symbols      # symbol table only
    repro-asm prog.s -o prog.lst
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import AssemblerError
from repro.isa import assemble, disassemble_block

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-asm", description="Assemble GA64 source and print a listing."
    )
    p.add_argument("source", help="GA64 assembly file (use '-' for stdin)")
    p.add_argument("-o", "--output", default=None, help="write the listing to a file")
    p.add_argument("--symbols", action="store_true", help="print the symbol table only")
    p.add_argument("--entry", default="_start", help="entry symbol (default _start)")
    return p


def render_listing(program) -> str:
    lines = []
    lines.append(f"entry: {program.entry:#x}")
    lines.append("")
    lines.append("sections:")
    for sec in sorted(program.sections.values(), key=lambda s: s.base):
        lines.append(f"  {sec.name:<8} {sec.base:#010x}..{sec.end:#010x}  {len(sec.data)} bytes")
    lines.append("")
    lines.append("symbols:")
    for name, addr in sorted(program.symbols.items(), key=lambda kv: kv[1]):
        lines.append(f"  {addr:#010x}  {name}")
    lines.append("")
    lines.append("disassembly (.text):")
    text = program.text
    lines.extend("  " + ln for ln in disassemble_block(bytes(text.data), base=text.base))
    return "\n".join(lines)


def render_symbols(program) -> str:
    return "\n".join(
        f"{addr:#010x}  {name}"
        for name, addr in sorted(program.symbols.items(), key=lambda kv: kv[1])
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    source = sys.stdin.read() if args.source == "-" else Path(args.source).read_text()
    try:
        program = assemble(source, entry_symbol=args.entry)
    except AssemblerError as exc:
        print(f"repro-asm: {args.source}: {exc}", file=sys.stderr)
        return 1
    text = render_symbols(program) if args.symbols else render_listing(program)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
