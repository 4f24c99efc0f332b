"""Import path kept for :class:`repro.mem.llsc.LLSCTable`, which the memory owns."""

from repro.mem.llsc import LLSCTable as LLSCTable
