"""Programmatic macro-assembler.

The guest runtime library and the PARSEC-like workloads are too large to
write as literal assembly strings, so they are generated with
:class:`AsmBuilder`: a thin fluent layer that accumulates assembly source
(one code path — everything still flows through the real assembler).

Any GA64 mnemonic or pseudo-instruction is available as a method::

    b = AsmBuilder()
    b.label("loop")
    b.addi("t0", "t0", 1)
    b.blt("t0", "t1", "loop")
    b.ld("a0", 8, "sp")          # loads/stores: (rd, offset, base)
    b.sc("t2", "t1", "t0")       # atomics: address register last
    prog = b.assemble()

Label allocation (:meth:`fresh_label`) keeps generated control flow
collision-free across library routines.
"""

from __future__ import annotations

import itertools
import keyword

from repro.errors import AssemblerError
from repro.isa.assembler import PSEUDOS, Assembler
from repro.isa.instructions import SPECS
from repro.isa.program import Program

__all__ = ["AsmBuilder"]

_LOADS = {"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"}
_STORES = {"sb", "sh", "sw", "sd"}
_ATOMIC_RMW = {"sc", "cas", "amoadd", "amoswap"}


def _emitter(mnemonic: str):
    """The builder method that appends one ``mnemonic`` line."""
    if mnemonic in _LOADS or mnemonic in _STORES:  # (rd|rs2, offset, base)
        def method(self, reg, off, base):
            self._section.append(f"{mnemonic} {reg}, {off}({base})")
            return self
    elif mnemonic == "lr":
        def method(self, rd, addr):
            self._section.append(f"lr {rd}, ({addr})")
            return self
    elif mnemonic in _ATOMIC_RMW:
        def method(self, rd, rs2, addr):
            self._section.append(f"{mnemonic} {rd}, {rs2}, ({addr})")
            return self
    else:
        def method(self, *ops):
            self._section.append(f"{mnemonic} {', '.join(map(str, ops))}" if ops else mnemonic)
            return self
    method.__name__ = mnemonic
    return method


_EMITTERS = {m: _emitter(m) for m in (*SPECS, *PSEUDOS)}


class AsmBuilder:
    """Accumulates assembly source; emits through the two-pass assembler."""

    def __init__(self) -> None:
        self._text: list[str] = [".text"]
        self._data: list[str] = [".data"]
        self._bss: list[str] = [".bss"]
        self._section = self._text
        self._labels = itertools.count()

    # -- structure ------------------------------------------------------------

    def text(self) -> "AsmBuilder":
        self._section = self._text
        return self

    def data(self) -> "AsmBuilder":
        self._section = self._data
        return self

    def bss(self) -> "AsmBuilder":
        self._section = self._bss
        return self

    def label(self, name: str) -> "AsmBuilder":
        self._section.append(f"{name}:")
        return self

    def fresh_label(self, prefix: str = "L") -> str:
        return f".{prefix}_{next(self._labels)}"

    def raw(self, line: str) -> "AsmBuilder":
        self._section.append(line)
        return self

    def comment(self, text: str) -> "AsmBuilder":
        self._section.append(f"# {text}")
        return self

    # -- data directives --------------------------------------------------------

    def quad(self, *values) -> "AsmBuilder":
        self._section.append(".quad " + ", ".join(str(v) for v in values))
        return self

    def word(self, *values) -> "AsmBuilder":
        self._section.append(".word " + ", ".join(str(v) for v in values))
        return self

    def space(self, n: int) -> "AsmBuilder":
        self._section.append(f".space {n}")
        return self

    def align(self, n: int) -> "AsmBuilder":
        self._section.append(f".align {n}")
        return self

    def asciz(self, s: str) -> "AsmBuilder":
        escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        self._section.append(f'.asciz "{escaped}"')
        return self

    # -- instructions ------------------------------------------------------------

    def emit(self, mnemonic: str, *ops) -> "AsmBuilder":
        emitter = _EMITTERS.get(mnemonic.lower())
        if emitter is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic.lower()!r}")
        return emitter(self, *ops)

    def __getattr__(self, name: str):
        # Only spellings no generated method covers reach here (``ADD``, ``Fcvt_D_L``).
        lowered = name.lower()
        for mnemonic in (lowered, lowered.rstrip("_"), lowered.replace("_", ".")):
            if mnemonic in _EMITTERS:
                return lambda *ops: self.emit(mnemonic, *ops)
        raise AttributeError(name)

    # -- common idioms ------------------------------------------------------------

    def prologue(self, frame: int = 16) -> "AsmBuilder":
        """Standard function entry: push ra/s0."""
        self.addi("sp", "sp", -frame)
        self.sd("ra", frame - 8, "sp")
        self.sd("s0", frame - 16, "sp")
        return self

    def epilogue(self, frame: int = 16) -> "AsmBuilder":
        self.ld("ra", frame - 8, "sp")
        self.ld("s0", frame - 16, "sp")
        self.addi("sp", "sp", frame)
        self.ret()
        return self

    def syscall(self, sysno: int) -> "AsmBuilder":
        """Load the syscall number and trap (args already in a0..a5)."""
        self.li("a7", sysno)
        self.ecall()
        return self

    # -- output ------------------------------------------------------------

    def source(self) -> str:
        return "\n".join(self._text + self._data + self._bss) + "\n"

    def assemble(self, **kwargs) -> Program:
        return Assembler(**kwargs).assemble(self.source())


# One method per mnemonic, made once: ``and_``/``or_``/``not_`` for the keywords,
# ``fcvt_d_l`` for the dotted forms.
for _m, _method in _EMITTERS.items():
    _attr = _m.replace(".", "_") + ("_" if keyword.iskeyword(_m) else "")
    if not hasattr(AsmBuilder, _attr):
        setattr(AsmBuilder, _attr, _method)
