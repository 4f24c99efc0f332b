"""Assembler, disassembler and builder tests."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import Cluster, DQEMUConfig
from repro.errors import AssemblerError
from repro.isa import (
    AsmBuilder,
    DEFAULT_TEXT_BASE,
    SPECS,
    Fmt,
    Instruction,
    assemble,
    decode,
    disassemble_word,
    encode,
    format_instruction,
)
from repro.isa.assembler import _li_sequence
from repro.isa.encoding import IMM14_MAX, IMM14_MIN, IMM19_MAX, IMM19_MIN
from repro.workloads import (
    blackscholes, fluidanimate, memaccess, mutex_bench, pi_taylor, swaptions, x264,
)


def text_words(prog):
    data = prog.text.data
    return [int.from_bytes(data[i : i + 4], "little") for i in range(0, len(data), 4)]


def decode_text(prog):
    return [decode(w) for w in text_words(prog)]


class TestAssembler:
    def test_minimal_program(self):
        prog = assemble("_start:\n  addi a0, zero, 5\n  ecall\n")
        instrs = decode_text(prog)
        assert instrs[0].mnemonic == "addi"
        assert instrs[0].rd == 10
        assert instrs[0].imm == 5
        assert instrs[1].mnemonic == "ecall"
        assert prog.entry == DEFAULT_TEXT_BASE

    def test_load_store_operands(self):
        prog = assemble("_start:\n  ld a0, 8(sp)\n  sd a1, -16(s0)\n")
        ld, sd = decode_text(prog)
        assert (ld.rd, ld.rs1, ld.imm) == (10, 2, 8)
        assert (sd.rs2, sd.rs1, sd.imm) == (11, 8, -16)

    def test_branch_to_label_backward(self):
        prog = assemble("_start:\nloop:\n  addi t0, t0, 1\n  bne t0, t1, loop\n")
        _, bne = decode_text(prog)
        assert bne.imm == -4

    def test_branch_to_label_forward(self):
        prog = assemble("_start:\n  beq a0, zero, done\n  nop\ndone:\n  ecall\n")
        beq = decode_text(prog)[0]
        assert beq.imm == 8

    def test_jal_and_call(self):
        prog = assemble("_start:\n  call func\n  ecall\nfunc:\n  ret\n")
        callee = decode_text(prog)[0]
        assert callee.mnemonic == "jal"
        assert callee.rd == 1  # ra
        assert callee.imm == 8

    def test_atomics_syntax(self):
        prog = assemble(
            "_start:\n  lr t0, (a0)\n  sc t1, t2, (a0)\n  cas t3, t4, (a1)\n"
        )
        lr, sc, cas = decode_text(prog)
        assert (lr.rd, lr.rs1) == (5, 10)
        assert (sc.rd, sc.rs2, sc.rs1) == (6, 7, 10)
        assert (cas.rd, cas.rs2, cas.rs1) == (28, 29, 11)

    def test_li_small_uses_addi(self):
        prog = assemble("_start:\n  li a0, 100\n")
        (instr,) = decode_text(prog)
        assert instr.mnemonic == "addi"
        assert instr.imm == 100

    def test_li_wide_uses_movz_movk(self):
        prog = assemble("_start:\n  li a0, 0x123456789ABC\n")
        instrs = decode_text(prog)
        assert instrs[0].mnemonic == "movz"
        assert all(i.mnemonic == "movk" for i in instrs[1:])
        assert len(instrs) == 3

    def test_li_minus_one_uses_movn(self):
        prog = assemble("_start:\n  li a0, -1\n")
        # -1 doesn't fit imm14? it does: addi a0, zero, -1
        (instr,) = decode_text(prog)
        assert instr.mnemonic == "addi"
        assert instr.imm == -1

    def test_li_large_negative_uses_movn(self):
        prog = assemble("_start:\n  li a0, -100000\n")
        instrs = decode_text(prog)
        assert instrs[0].mnemonic == "movn"

    def test_la_emits_four_instructions(self):
        prog = assemble("_start:\n  la a0, var\n  ecall\n.data\nvar: .quad 1\n")
        instrs = decode_text(prog)
        assert [i.mnemonic for i in instrs[:4]] == ["movz", "movk", "movk", "movk"]

    def test_data_section_layout_and_symbols(self):
        prog = assemble(
            "_start:\n  nop\n.data\nx: .quad 0x1122334455667788\ny: .word 7\n"
        )
        x = prog.symbol("x")
        assert x % 4096 == 0  # .data starts on a page boundary
        assert prog.symbol("y") == x + 8
        data = prog.sections[".data"].data
        assert data[:8] == (0x1122334455667788).to_bytes(8, "little")
        assert data[8:12] == (7).to_bytes(4, "little")

    def test_quad_of_label_resolves(self):
        prog = assemble("_start:\n  nop\n.data\nptr: .quad target\ntarget: .quad 0\n")
        data = prog.sections[".data"].data
        stored = int.from_bytes(data[:8], "little")
        assert stored == prog.symbol("target")

    def test_bss_reserves_zeroed_space(self):
        prog = assemble("_start:\n  nop\n.bss\nbuf: .space 8192\nend_marker: .space 8\n")
        assert prog.symbol("end_marker") - prog.symbol("buf") == 8192
        assert prog.sections[".bss"].base % 4096 == 0

    def test_asciz(self):
        prog = assemble('_start:\n  nop\n.data\nmsg: .asciz "hi\\n"\n')
        data = prog.sections[".data"].data
        assert bytes(data[:4]) == b"hi\n\x00"

    def test_align_in_data(self):
        prog = assemble("_start:\n  nop\n.data\na: .byte 1\n.align 8\nb: .quad 2\n")
        assert prog.symbol("b") % 8 == 0

    def test_label_plus_offset(self):
        prog = assemble(
            "_start:\n  la a0, arr+16\n  ecall\n.data\narr: .space 32\n"
        )
        # reconstruct the movz/movk constant
        instrs = decode_text(prog)[:4]
        value = 0
        for ins in instrs:
            if ins.mnemonic == "movz":
                value = ins.imm << (16 * ins.hw)
            else:
                value |= ins.imm << (16 * ins.hw)
        assert value == prog.symbol("arr") + 16

    def test_comments_and_blank_lines_ignored(self):
        prog = assemble(
            "# leading comment\n\n_start:  # trailing\n  nop // c++ style\n"
        )
        assert len(text_words(prog)) == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("_start:\nx:\n nop\nx:\n nop\n")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("_start:\n  frobnicate a0\n")

    def test_unknown_symbol_rejected(self):
        with pytest.raises(AssemblerError, match="unknown symbol"):
            assemble("_start:\n  beq a0, a1, nowhere\n")

    def test_missing_entry_rejected(self):
        with pytest.raises(AssemblerError, match="entry symbol"):
            assemble("main:\n  nop\n")

    def test_custom_entry_symbol(self):
        prog = assemble("main:\n  nop\n", entry_symbol="main")
        assert prog.entry == DEFAULT_TEXT_BASE

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError, match="outside .text"):
            assemble("_start:\n nop\n.data\n  addi a0, a0, 1\n")

    def test_sections_do_not_overlap(self):
        prog = assemble(
            "_start:\n  nop\n.data\nd: .space 100\n.bss\nb: .space 100\n"
        )
        assert prog.overlapping_sections() == []

    def test_hint_instruction(self):
        prog = assemble("_start:\n  hint 7\n")
        (instr,) = decode_text(prog)
        assert instr.mnemonic == "hint"
        assert instr.imm == 7


    def test_comment_markers_inside_quotes_are_text(self):
        prog = assemble(
            '_start:\n  li a0, \'#\'  # the hash\n  li a1, \'/\' // slash\n'
            '.data\na: .asciz "50% # done"  # c\nb: .asciz "http://x" // c\n'
        )
        li_a0, li_a1 = decode_text(prog)
        assert (li_a0.imm, li_a1.imm) == (ord("#"), ord("/"))
        data = bytes(prog.sections[".data"].data)
        assert data == b"50% # done\x00http://x\x00"
        assert prog.symbol("b") == prog.symbol("a") + len("50% # done") + 1

    def test_align_in_text_pads_with_nops_that_run(self):
        prog = assemble("_start: addi a0, zero, 7\n.align 16\nli a7, 94\necall\n")
        assert [i.mnemonic for i in decode_text(prog)] == ["addi"] + ["addi"] * 3 + ["addi", "ecall"]
        assert text_words(prog)[1:4] == [encode(Instruction(SPECS["addi"]))] * 3
        assert Cluster(1, DQEMUConfig()).run(prog).exit_code == 7

    @pytest.mark.parametrize(
        "line,message",
        [
            ("addi a0, zero, 99999", "line 3: imm14 out of range [-8192, 8191]: 99999"),
            ("beq a0, a1, 6", "line 3: branch offset not 4-aligned: 6"),
            ("movz a0, 1, 4", "line 3: halfword index out of range: 4"),
            ("add a0, a1", "line 3: add takes 3 operands, got 2"),
            ("ld a0, 8[sp]", "line 3: bad memory operand '8[sp]'"),
            ("lr a0, 8(a1)", "line 3: atomic operand must be (reg): '8(a1)'"),
            ("add a0, a1, q7", "line 3: unknown register 'q7'"),
            ("li a0", "line 3: li takes 2 operands, got 1"),
            ("li a0, zz", "line 3: bad integer literal 'zz'"),
            (".align three", "line 3: bad integer literal 'three'"),
        ],
    )
    def test_operand_errors_carry_the_line(self, line, message):
        with pytest.raises(AssemblerError) as info:
            assemble(f"_start:\n  nop\n  {line}\n")
        assert str(info.value) == message

    def test_encoding_error_is_chained(self):
        with pytest.raises(AssemblerError, match="line 2:") as info:
            assemble("_start:\n  jal ra, 2\n")
        assert type(info.value.__cause__).__name__ == "EncodingError"

    def test_symbolic_data_waits_for_pass_two(self):
        prog = assemble("_start:\n  nop\n.data\np: .quad 5, later+8, -1\nlater: .byte 'A'\n")
        data = bytes(prog.sections[".data"].data)
        assert data[:8] == (5).to_bytes(8, "little")
        assert int.from_bytes(data[8:16], "little") == prog.symbol("later") + 8
        assert data[16:] == b"\xff" * 8 + b"A"


HELLO = """\
_start:
    li a0, 1          # stdout
    la a1, msg
    li a2, 6
    li a7, 64         # write
    ecall
    li a0, 0
    li a7, 94         # exit_group
    ecall
.data
msg: .asciz "hello\\n"
"""


def image_digest(prog):
    """sha256 over every section's name, base and bytes, the sorted symbols and the entry.

    A section's ``zero_fill`` hashes as the zero bytes it stands for, so an
    image digests the same whether its ``.bss`` is stored or only sized."""
    h = hashlib.sha256()
    for sec in prog.sections.values():
        h.update(f"{sec.name} {sec.base:#x} {len(sec.data) + sec.zero_fill}\n".encode())
        h.update(bytes(sec.data))
        h.update(bytes(sec.zero_fill))
    for name, addr in sorted(prog.symbols.items()):
        h.update(f"{name}={addr:#x}\n".encode())
    h.update(f"entry={prog.entry:#x}".encode())
    return h.hexdigest()


#: Digests recorded from the assembler that preceded the table-driven one:
#: assembling faster must not change a byte of any image.
IMAGES = {
    "blackscholes": (blackscholes.build, "2911d96f0408c7817f9e6991e1e9822efecf87ce8948594baa9e597110e2aeee"),
    "fluidanimate": (fluidanimate.build, "203fb701aec4294837c1361bc93a8403eb80a8536ad4c3601d30598f41eb48dd"),
    "fluidanimate_hint_mod4": (
        lambda: fluidanimate.build(hint=("mod", 4)),
        "6fcd56f6bb0fe4f70c138f10cfab792acd71abda4aa493ca0d2d65d7d7c5c0dd",
    ),
    "seq_walk": (memaccess.build_seq_walk, "2279b32684e6d41e50c4b5c4c2bd440391b5db9e98878be0f0e8e7700cc5e676"),
    "false_sharing": (
        memaccess.build_false_sharing, "845c927e287a8fae4bf0ed6d1996af5c9e5a6852c8de28bf6dfe55227c84872f",
    ),
    "private_rmw": (
        memaccess.build_private_rmw, "25f1436f8ab15d78e478d26f839fd6630260a5bf42ed436d533e41ef9aceb28c",
    ),
    "mutex_bench": (mutex_bench.build, "ccad8af65b8d2e00e5b7a592d7d301e0a56a40d98aa3b21b35996db3efe8871c"),
    "mutex_bench_private": (
        lambda: mutex_bench.build(private=True),
        "bb928d52b059de4d28e23e26035615270da7e08883868011af1c2077aa61ea48",
    ),
    "pi_taylor": (pi_taylor.build, "56f5fc406643a0341c334f9e302e0b0dce2341fc327bceaef200dca07cc3940e"),
    "swaptions": (swaptions.build, "7721d4e0f0d0668153bf5ad9db7e17a44abf2e5dd2589a1a3fc69e6d9ed60ac1"),
    "x264": (x264.build, "9b05e892535ae310eeb623a563a0289e829030c8fc6eb758b5373cdbe73fe308"),
    "readme_hello": (lambda: assemble(HELLO), "0407870d55be5978320b325a134eac8d14b06e31423205bdd569f7aaf37a0b5e"),
}


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_image_is_byte_identical(name):
    build, digest = IMAGES[name]
    assert image_digest(build()) == digest


class TestPseudoExpansions:
    @pytest.mark.parametrize(
        "src,expected",
        [
            ("mv a0, a1", ("addi", 10, 11, 0)),
            ("seqz a0, a1", ("sltiu", 10, 11, 1)),
        ],
    )
    def test_simple_pseudo(self, src, expected):
        prog = assemble(f"_start:\n  {src}\n")
        (instr,) = decode_text(prog)
        m, rd, rs1, imm = expected
        assert (instr.mnemonic, instr.rd, instr.rs1, instr.imm) == (m, rd, rs1, imm)

    def test_bgt_swaps_operands(self):
        prog = assemble("_start:\nx:\n  bgt a0, a1, x\n")
        (instr,) = decode_text(prog)
        assert instr.mnemonic == "blt"
        assert (instr.rs1, instr.rs2) == (11, 10)

    def test_ret_is_jalr_ra(self):
        prog = assemble("_start:\n  ret\n")
        (instr,) = decode_text(prog)
        assert (instr.mnemonic, instr.rd, instr.rs1) == ("jalr", 0, 1)


class TestLiSequence:
    @given(st.integers(-(2**63), 2**63 - 1))
    def test_li_materializes_any_value(self, value):
        """Simulate the movz/movn/movk semantics over the emitted sequence."""
        seq = _li_sequence(5, value)
        assert 1 <= len(seq) <= 4
        reg = 0
        for ins in seq:
            if ins.mnemonic == "addi":
                reg = ins.imm & 0xFFFFFFFFFFFFFFFF
            elif ins.mnemonic == "movz":
                reg = ins.imm << (16 * ins.hw)
            elif ins.mnemonic == "movn":
                reg = (~(ins.imm << (16 * ins.hw))) & 0xFFFFFFFFFFFFFFFF
            elif ins.mnemonic == "movk":
                mask = 0xFFFF << (16 * ins.hw)
                reg = (reg & ~mask) | (ins.imm << (16 * ins.hw))
        assert reg == value & 0xFFFFFFFFFFFFFFFF


def _instr_strategy(spec):
    """Random in-range fields for the fields ``spec``'s text form shows."""
    reg, f = st.integers(0, 31), spec.fmt
    imm14 = st.integers(IMM14_MIN, IMM14_MAX)
    aligned = lambda lo, hi: st.integers(lo // 4, hi // 4).map(lambda v: 4 * v)  # noqa: E731
    build = lambda **kw: st.builds(Instruction, st.just(spec), **kw)  # noqa: E731
    if f is Fmt.SYS:
        return build()
    if spec.mnemonic == "hint":
        return build(imm=imm14)  # rd = rs1 = 0
    if f is Fmt.R and spec.mnemonic in ("lr", "fsqrt", "fcvt.d.l", "fcvt.l.d"):
        return build(rd=reg, rs1=reg)
    if f is Fmt.R:
        return build(rd=reg, rs1=reg, rs2=reg)
    if f is Fmt.I:
        return build(rd=reg, rs1=reg, imm=imm14)
    if f is Fmt.S:
        return build(rs1=reg, rs2=reg, imm=imm14)
    if f is Fmt.B:
        return build(rs1=reg, rs2=reg, imm=aligned(IMM14_MIN, IMM14_MAX))
    if f is Fmt.M:
        return build(rd=reg, imm=st.integers(0, 0xFFFF), hw=st.integers(0, 3))
    return build(rd=reg, imm=aligned(IMM19_MIN, IMM19_MAX))  # J


#: One random in-range instruction per ``SPECS`` row.
_EVERY_ROW = st.tuples(*(_instr_strategy(spec) for spec in SPECS.values()))


class TestDisassembler:
    @settings(max_examples=25)
    @given(_EVERY_ROW)
    def test_disassembles_back_to_parseable_text(self, instrs):
        """Assembling the disassembly of every row's word gives the same words back."""
        words = [encode(i) for i in instrs]
        src = "_start:\n" + "".join(f"  {disassemble_word(w)}\n" for w in words)
        assert text_words(assemble(src)) == words

    @settings(max_examples=25)
    @given(_EVERY_ROW)
    def test_format_matches_mnemonic(self, instrs):
        assert [format_instruction(i).split()[0] for i in instrs] == list(SPECS)


class TestBuilder:
    def test_builder_generates_runnable_source(self):
        b = AsmBuilder()
        b.label("_start")
        b.li("a0", 42)
        b.li("a7", 93)
        b.ecall()
        prog = b.assemble()
        assert prog.entry == DEFAULT_TEXT_BASE
        assert decode_text(prog)[-1].mnemonic == "ecall"

    def test_builder_load_store_signature(self):
        b = AsmBuilder()
        b.label("_start")
        b.ld("a0", 8, "sp")
        b.sd("a0", 0, "sp")
        prog = b.assemble()
        ld, sd = decode_text(prog)
        assert (ld.imm, ld.rs1) == (8, 2)
        assert (sd.imm, sd.rs1) == (0, 2)

    def test_builder_atomic_signature(self):
        b = AsmBuilder()
        b.label("_start")
        b.lr("t0", "a0")
        b.sc("t1", "t2", "a0")
        prog = b.assemble()
        lr, sc = decode_text(prog)
        assert lr.mnemonic == "lr"
        assert sc.mnemonic == "sc"

    def test_builder_fp_via_getattr(self):
        b = AsmBuilder()
        b.label("_start")
        b.fcvt_d_l("a0", "a1")
        prog = b.assemble()
        (instr,) = decode_text(prog)
        assert instr.mnemonic == "fcvt.d.l"

    def test_fresh_labels_unique(self):
        b = AsmBuilder()
        labels = {b.fresh_label() for _ in range(100)}
        assert len(labels) == 100

    def test_builder_data_section(self):
        b = AsmBuilder()
        b.label("_start").nop()
        b.data().label("counter").quad(0)
        prog = b.assemble()
        assert prog.symbol("counter") == prog.sections[".data"].base

    def test_builder_prologue_epilogue(self):
        b = AsmBuilder()
        b.label("_start")
        b.prologue()
        b.epilogue()
        prog = b.assemble()
        mns = [i.mnemonic for i in decode_text(prog)]
        assert mns == ["addi", "sd", "sd", "ld", "ld", "addi", "jalr"]

    def test_builder_unknown_mnemonic_raises(self):
        b = AsmBuilder()
        with pytest.raises(AttributeError):
            b.bogus_op("a0")

    def test_builder_syscall_helper(self):
        b = AsmBuilder()
        b.label("_start")
        b.syscall(93)
        prog = b.assemble()
        instrs = decode_text(prog)
        assert instrs[0].imm == 93
        assert instrs[0].rd == 17  # a7
        assert instrs[-1].mnemonic == "ecall"

    def test_builder_asciz_round_trips_comment_markers(self):
        b = AsmBuilder()
        b.label("_start").nop()
        b.data().label("msg").asciz('say "50% # done" at http://x\n')
        prog = b.assemble()
        assert bytes(prog.sections[".data"].data) == b'say "50% # done" at http://x\n\x00'

    def test_mnemonic_methods_are_bound_once(self):
        for name in ("add", "ld", "sc", "lr", "li", "la", "ret", "and_", "or_", "not_", "fcvt_d_l"):
            assert name in vars(AsmBuilder), name
        b = AsmBuilder()
        assert b.add.__func__ is AsmBuilder.add

    def test_builder_source_text(self):
        b = AsmBuilder()
        b.label("_start").ADD("a0", "a1", "a2").and_("a0", "a0", "t0").not_("a1", "a1")
        b.ld("a0", 8, "sp").sd("a0", -8, "s0").lr("t0", "a0").cas("t1", "t2", "a0")
        b.fcvt_d_l("a0", "a1").li("a7", 94).ecall()
        assert b.source() == (
            ".text\n_start:\nadd a0, a1, a2\nand a0, a0, t0\nnot a1, a1\nld a0, 8(sp)\n"
            "sd a0, -8(s0)\nlr t0, (a0)\ncas t1, t2, (a0)\nfcvt.d.l a0, a1\nli a7, 94\n"
            "ecall\n.data\n.bss\n"
        )

