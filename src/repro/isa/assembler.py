"""Two-pass GA64 assembler.

Turns assembly source into a :class:`~repro.isa.program.Program`.  Supports
sections (``.text``/``.data``/``.bss``), data directives, labels with simple
``label+offset`` arithmetic, and the usual RISC pseudo-instructions (``li``,
``la``, ``mv``, ``call``, ``ret``, ``beqz``…).

Operand syntax by format::

    add   rd, rs1, rs2          # R
    addi  rd, rs1, imm          # I
    ld    rd, imm(rs1)          # I loads
    sd    rs2, imm(rs1)         # S stores
    beq   rs1, rs2, label       # B
    jal   rd, label             # J
    movz  rd, imm16, hw         # M
    lr    rd, (rs1)             # atomics
    sc    rd, rs2, (rs1)
    cas   rd, rs2, (rs1)
    hint  imm                   # scheduling hint (paper §5.3)

Pass 1 tokenizes each line once, looks its mnemonic up in one table and lays
out the sections; pass 2 runs the table's encoders, one per emitted word,
which return words through the field encoders of :mod:`repro.isa.encoding`.
Comments start at ``#`` or ``//`` outside quotes; every error names its line.
"""

from __future__ import annotations

import re
import struct
from typing import Optional

from repro.errors import AssemblerError, EncodingError
from repro.isa.encoding import (
    IMM14_MAX, IMM14_MIN, INSTR_BYTES, encode_b, encode_i, encode_j, encode_m, encode_r, encode_s,
)
from repro.isa.instructions import SPECS, Fmt, Instruction
from repro.isa.program import DEFAULT_TEXT_BASE, Program, Section
from repro.isa.registers import REG_BY_NAME

__all__ = ["Assembler", "assemble"]

_NAME = r"[A-Za-z_.$][\w.$]*"
_LABEL_RE = re.compile(_NAME)
_LABEL_DEF_RE = re.compile(rf"({_NAME})\s*:\s*")
_SYM_OFFSET_RE = re.compile(rf"({_NAME})\s*([+-])\s*(.+)")
_MEM_RE = re.compile(r"([^()]*?)\s*\(\s*([^()]+?)\s*\)")
_COMMA_RE = re.compile(r"\s*,\s*")
_OPERAND_RE = re.compile(r"""(?:'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*"|\([^()]*\)?|[^,'"(]|['"])+""")
#: The code before a line's comment: ``#`` or ``//`` outside quotes.
_CODE_RE = re.compile(r"""(?:[^#/"']+|/(?!/)|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*'|["'])*""")
_STRING_RE = re.compile(r'"(.*)"')

PAGE = 4096
_DATA_SIZES = {".quad": 8, ".word": 4, ".half": 2, ".byte": 1}


class _CaseFolded(dict):
    """Name -> value; a miss retries in lower case, then fails as unknown."""

    def __init__(self, what: str, table: dict) -> None:
        super().__init__(table)
        self.what = what

    def __missing__(self, name):
        lowered = name.lower()
        if lowered in self:
            return self[lowered]
        raise KeyError(f"unknown {self.what} {name!r}")


_REG = _CaseFolded("register", REG_BY_NAME)


def _parse_int(tok: str) -> int:
    try:
        if tok[:1] == "'" and tok[-1:] == "'" and len(tok) >= 3:
            body = tok[1:-1].encode().decode("unicode_escape")
            if len(body) != 1:
                raise ValueError
            return ord(body)
        return int(tok, 0)
    except ValueError:
        raise AssemblerError(f"bad integer literal {tok!r}") from None


def _eval(expr: str, symbols: dict[str, int]) -> int:
    """``symbol``, ``symbol±int`` or an integer literal."""
    if expr in symbols:
        return symbols[expr]
    try:
        return int(expr, 0)
    except ValueError:
        pass
    m = _SYM_OFFSET_RE.fullmatch(expr)
    if m:
        name, sign, off = m.groups()
        if name not in symbols:
            raise AssemblerError(f"unknown symbol {name!r}")
        return symbols[name] + (_parse_int(off) if sign == "+" else -_parse_int(off))
    if _LABEL_RE.fullmatch(expr):
        raise AssemblerError(f"unknown symbol {expr!r}")
    return _parse_int(expr)


def _target(tok: str, pc: int, symbols: dict[str, int]) -> int:
    """Branch/jump operand: a label (pc-relative) or a literal byte offset."""
    if tok in symbols:
        return symbols[tok] - pc
    if _LABEL_RE.fullmatch(tok) or "+" in tok or "-" in tok[1:]:
        return _eval(tok, symbols) - pc
    return _parse_int(tok)


def _mem(tok: str, symbols: dict[str, int]) -> tuple[int, int]:
    """``imm(reg)`` -> (offset, register)."""
    m = _MEM_RE.fullmatch(tok)
    if m is None:
        raise AssemblerError(f"bad memory operand {tok!r}")
    off, reg = m.groups()
    return (_eval(off, symbols) if off else 0), _REG[reg]


def _bare_mem(tok: str) -> int:
    """``(reg)`` -> register (atomics take no offset)."""
    m = _MEM_RE.fullmatch(tok)
    if m is None or m.group(1):
        raise AssemblerError(f"atomic operand must be (reg): {tok!r}")
    return _REG[m.group(2)]


def _operands(text: str) -> list[str]:
    """Split on commas; with quotes present, not on those inside quotes or parentheses."""
    if "'" in text or '"' in text:
        return [op.strip() for op in _OPERAND_RE.findall(text)]
    return _COMMA_RE.split(text)


# -- the instruction table ------------------------------------------------------
#
# mnemonic -> (operand counts, one encoder per emitted word); an encoder maps
# (operands, pc of its word, symbols) to the word.  ``li`` has no encoders: its
# operand is a literal, so pass 1 emits its words.

_OP = {m: spec.opcode for m, spec in SPECS.items()}
_UNARY_R = ("fsqrt", "fcvt.d.l", "fcvt.l.d")


def _real(m: str, spec) -> tuple[tuple[int, ...], tuple]:
    op, fmt = spec.opcode, spec.fmt
    if fmt is Fmt.SYS:
        return (0,), (lambda o, pc, s: op << 24,)
    if m == "hint":  # `hint 5` (literal group) or `hint t0` (group from register)
        return (1,), (lambda o, pc, s: encode_i(op, 0, _REG[o[0]], 0) if o[0].lower() in _REG
                       else encode_i(op, 0, 0, _eval(o[0], s)),)
    if fmt is Fmt.R:
        if m == "lr":
            return (2,), (lambda o, pc, s: encode_r(op, _REG[o[0]], _bare_mem(o[1]), 0),)
        if spec.is_atomic:
            return (3,), (lambda o, pc, s: encode_r(op, _REG[o[0]], _bare_mem(o[2]), _REG[o[1]]),)
        if m in _UNARY_R:
            return (2,), (lambda o, pc, s: encode_r(op, _REG[o[0]], _REG[o[1]], 0),)
        return (3,), (lambda o, pc, s: encode_r(op, _REG[o[0]], _REG[o[1]], _REG[o[2]]),)
    if fmt is Fmt.I and spec.is_load:
        def load(o, pc, s):
            off, base = _mem(o[1], s)
            return encode_i(op, _REG[o[0]], base, off)
        return (2,), (load,)
    if fmt is Fmt.I:
        return (3,), (lambda o, pc, s: encode_i(op, _REG[o[0]], _REG[o[1]], _eval(o[2], s)),)
    if fmt is Fmt.S:
        def store(o, pc, s):
            off, base = _mem(o[1], s)
            return encode_s(op, base, _REG[o[0]], off)
        return (2,), (store,)
    if fmt is Fmt.B:
        return (3,), (lambda o, pc, s: encode_b(op, _REG[o[0]], _REG[o[1]], _target(o[2], pc, s)),)
    if fmt is Fmt.M:
        return (2, 3), (lambda o, pc, s: encode_m(
            op, _REG[o[0]], _eval(o[1], s) & 0xFFFF, _eval(o[2], s) if len(o) > 2 else 0),)
    return (2,), (lambda o, pc, s: encode_j(op, _REG[o[0]], _target(o[1], pc, s)),)  # J


def _la_half(k: int):
    op = _OP["movk"] if k else _OP["movz"]
    return lambda o, pc, s: encode_m(op, _REG[o[0]], (_eval(o[1], s) >> 16 * k) & 0xFFFF, k)


def _pseudos() -> dict[str, tuple[tuple[int, ...], Optional[tuple]]]:
    addi, sub, xori, sltiu, sltu, jal, jalr = (
        _OP[m] for m in ("addi", "sub", "xori", "sltiu", "sltu", "jal", "jalr"))
    table = {
        "nop": ((0,), (lambda o, pc, s: encode_i(addi, 0, 0, 0),)),
        "mv": ((2,), (lambda o, pc, s: encode_i(addi, _REG[o[0]], _REG[o[1]], 0),)),
        "neg": ((2,), (lambda o, pc, s: encode_r(sub, _REG[o[0]], 0, _REG[o[1]]),)),
        "not": ((2,), (lambda o, pc, s: encode_i(xori, _REG[o[0]], _REG[o[1]], -1),)),
        "seqz": ((2,), (lambda o, pc, s: encode_i(sltiu, _REG[o[0]], _REG[o[1]], 1),)),
        "snez": ((2,), (lambda o, pc, s: encode_r(sltu, _REG[o[0]], 0, _REG[o[1]]),)),
        "j": ((1,), (lambda o, pc, s: encode_j(jal, 0, _target(o[0], pc, s)),)),
        "jr": ((1,), (lambda o, pc, s: encode_i(jalr, 0, _REG[o[0]], 0),)),
        "call": ((1,), (lambda o, pc, s: encode_j(jal, 1, _target(o[0], pc, s)),)),
        "ret": ((0,), (lambda o, pc, s: encode_i(jalr, 0, 1, 0),)),
        "li": ((2,), None),
        "la": ((2,), tuple(_la_half(k) for k in range(4))),
    }
    for m, real in (("beqz", "beq"), ("bnez", "bne")):
        op = _OP[real]
        table[m] = (2,), (lambda o, pc, s, op=op: encode_b(op, _REG[o[0]], 0, _target(o[1], pc, s)),)
    for m, real in (("bgt", "blt"), ("ble", "bge"), ("bgtu", "bltu"), ("bleu", "bgeu")):
        op = _OP[real]
        table[m] = (3,), (lambda o, pc, s, op=op: encode_b(
            op, _REG[o[1]], _REG[o[0]], _target(o[2], pc, s)),)
    return table


_INSTRS = _CaseFolded("mnemonic", {m: _real(m, spec) for m, spec in SPECS.items()} | _pseudos())
PSEUDOS = frozenset(_INSTRS) - frozenset(SPECS)
_NOP = encode_i(_OP["addi"], 0, 0, 0)


def _located(lineno: int, exc: Exception) -> AssemblerError:
    message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
    return AssemblerError(f"line {lineno}: {message}")


class Assembler:
    """Two-pass assembler producing a loadable :class:`Program`."""

    def __init__(
        self,
        *,
        text_base: int = DEFAULT_TEXT_BASE,
        data_base: Optional[int] = None,
        entry_symbol: str = "_start",
    ) -> None:
        self.text_base = text_base
        self.data_base = data_base  # None: first page boundary after .text
        self.entry_symbol = entry_symbol

    # -- public API ----------------------------------------------------------

    def assemble(self, source: str) -> Program:
        sections = {
            ".text": Section(".text", self.text_base),
            ".data": Section(".data", 0),  # base fixed after pass 1
            ".bss": Section(".bss", 0),
        }
        data = sections[".data"].data
        # .text rows: (lineno, encoder, operands) or (lineno, None, word).
        rows: list[tuple] = []
        fixups: list[tuple[int, int, int, str]] = []  # (lineno, offset, size, expr)
        labels: dict[str, tuple[str, int]] = {}

        # ---- pass 1: tokenize, lay out the sections, record labels ----
        cursor = {".text": 0, ".data": 0, ".bss": 0}
        current = ".text"
        for lineno, line in enumerate(source.splitlines(), start=1):
            try:
                if "#" in line or "/" in line or '"' in line or "'" in line:
                    line = _CODE_RE.match(line).group()
                line = line.strip()
                if not line:
                    continue
                while ":" in line:  # labels, possibly several on one line
                    m = _LABEL_DEF_RE.match(line)
                    if not m:
                        break
                    name = m.group(1)
                    if name in labels:
                        raise AssemblerError(f"duplicate label {name!r}")
                    labels[name] = (current, cursor[current])
                    line = line[m.end():]
                if not line:
                    continue
                if line[0] == ".":
                    current = self._directive(line, lineno, current, cursor, data, rows, fixups)
                    continue
                parts = line.split(None, 1)
                mnemonic = parts[0]
                counts, encoders = _INSTRS[mnemonic]
                if len(parts) == 1:
                    ops = []
                elif "'" in line or '"' in line:
                    ops = _operands(parts[1])
                else:  # the common case, inline
                    ops = _COMMA_RE.split(parts[1])
                if len(ops) not in counts:
                    raise AssemblerError(f"{mnemonic} takes {' or '.join(map(str, counts))}"
                                         f" operands, got {len(ops)}")
                if current != ".text":
                    raise AssemblerError("instruction outside .text")
                if encoders is None:  # li
                    for word in _li_words(_REG[ops[0]], _parse_int(ops[1])):
                        rows.append((lineno, None, word))
                        cursor[".text"] += INSTR_BYTES
                else:
                    for encoder in encoders:
                        rows.append((lineno, encoder, ops))
                        cursor[".text"] += INSTR_BYTES
            except (AssemblerError, EncodingError, KeyError) as exc:
                raise _located(lineno, exc) from exc

        # ---- fix section bases ----
        text_end = self.text_base + cursor[".text"]
        data_base = (
            self.data_base
            if self.data_base is not None
            else (text_end + PAGE - 1) // PAGE * PAGE
        )
        sections[".data"].base = data_base
        sections[".bss"].base = (data_base + len(data) + PAGE - 1) // PAGE * PAGE
        sections[".bss"].data = bytearray(cursor[".bss"])
        symbols = {name: sections[sec].base + off for name, (sec, off) in labels.items()}

        # ---- pass 2: encode .text, then resolve symbolic data ----
        words = []
        pc = self.text_base
        for lineno, encoder, arg in rows:
            if encoder is None:
                words.append(arg)
            else:
                try:
                    words.append(encoder(arg, pc, symbols))
                except (AssemblerError, EncodingError, KeyError) as exc:
                    raise _located(lineno, exc) from exc
            pc += INSTR_BYTES
        sections[".text"].data = bytearray(struct.pack(f"<{len(words)}I", *words))
        for lineno, offset, size, expr in fixups:
            try:
                value = _eval(expr, symbols)
            except AssemblerError as exc:
                raise _located(lineno, exc) from exc
            data[offset : offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

        if self.entry_symbol not in symbols:
            raise AssemblerError(f"entry symbol {self.entry_symbol!r} not defined")
        return Program(sections=sections, symbols=symbols, entry=symbols[self.entry_symbol])

    # -- pass-1 directives ----------------------------------------------------

    @staticmethod
    def _directive(line, lineno, current, cursor, data, rows, fixups) -> str:
        """Apply one directive; returns the section that is current after it."""
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name in (".text", ".data", ".bss"):
            return name
        if name == ".global" or name == ".globl":
            return current
        if name == ".align":
            n = _parse_int(rest)
            if n <= 0:
                raise AssemblerError(f"bad alignment {n}")
            pad = (-cursor[current]) % n
            if current == ".text":
                if pad % INSTR_BYTES:
                    raise AssemblerError(".align in .text must be 4-aligned")
                rows.extend([(lineno, None, _NOP)] * (pad // INSTR_BYTES))
            elif current == ".data":
                data.extend(bytes(pad))
            cursor[current] += pad
            return current
        if name == ".space" or name == ".zero":
            n = _parse_int(rest)
            if n < 0:
                raise AssemblerError("negative .space")
            if current == ".text":
                raise AssemblerError(".space not allowed in .text")
            cursor[current] += n
            if current == ".data":
                data.extend(bytes(n))
            return current
        if name in _DATA_SIZES:
            size = _DATA_SIZES[name]
            if current == ".bss":
                raise AssemblerError("initialized data in .bss")
            if current == ".text":
                raise AssemblerError("data directive in .text")
            for item in _operands(rest):
                try:  # a plain integer is written now; only symbols wait for pass 2
                    value = int(item, 0)
                except ValueError:
                    fixups.append((lineno, len(data), size, item))
                    value = 0
                data.extend((value & ((1 << (8 * size)) - 1)).to_bytes(size, "little"))
            cursor[current] = len(data)
            return current
        if name in (".asciz", ".ascii", ".string"):
            if current != ".data":
                raise AssemblerError("strings only allowed in .data")
            m = _STRING_RE.fullmatch(rest.strip())
            if not m:
                raise AssemblerError("bad string literal")
            payload = m.group(1).encode().decode("unicode_escape").encode("latin-1")
            if name in (".asciz", ".string"):
                payload += b"\x00"
            data.extend(payload)
            cursor[".data"] += len(payload)
            return current
        raise AssemblerError(f"unknown directive {name}")


# -- wide constants ---------------------------------------------------------------


def _li_steps(value: int) -> list[tuple[str, int, int]]:
    """Minimal addi or movz/movn/movk steps ``(mnemonic, imm, hw)`` for ``value``."""
    if IMM14_MIN <= value <= IMM14_MAX:
        return [("addi", value, 0)]
    u = value & 0xFFFF_FFFF_FFFF_FFFF
    hws = [(u >> (16 * k)) & 0xFFFF for k in range(4)]
    nonzero = [k for k, h in enumerate(hws) if h != 0]
    nonffff = [k for k, h in enumerate(hws) if h != 0xFFFF]
    if len(nonffff) < len(nonzero):
        first, *rest = nonffff or [0]
        steps = [("movn", ~hws[first] & 0xFFFF, first)]
    else:
        first, *rest = nonzero or [0]
        steps = [("movz", hws[first], first)]
    return steps + [("movk", hws[k], k) for k in rest]


def _li_words(rd: int, value: int) -> list[int]:
    return [encode_i(_OP[m], rd, 0, imm) if m == "addi" else encode_m(_OP[m], rd, imm, hw)
            for m, imm, hw in _li_steps(value)]


def _li_sequence(rd: int, value: int) -> list[Instruction]:
    """The :class:`Instruction` view of ``li rd, value``."""
    return [Instruction(SPECS[m], rd=rd, imm=imm, hw=hw) for m, imm, hw in _li_steps(value)]


def assemble(source: str, **kwargs) -> Program:
    """Convenience wrapper: assemble ``source`` with default bases."""
    return Assembler(**kwargs).assemble(source)
