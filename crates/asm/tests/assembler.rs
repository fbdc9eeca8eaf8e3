//! Integration tests for the assembler: layout, pseudo-expansion, symbols,
//! error reporting, and full-kernel round trips through the disassembler.

use lrscwait_asm::{assemble, Assembler, DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE};
use lrscwait_isa::{decode, disasm};

fn disasm_all(program: &lrscwait_asm::Program) -> Vec<String> {
    program
        .text
        .iter()
        .map(|&w| disasm(&decode(w).expect("assembled word must decode")))
        .collect()
}

#[test]
fn minimal_program() {
    let p = assemble("nop\necall\n").unwrap();
    assert_eq!(p.text.len(), 2);
    assert_eq!(p.text_base, DEFAULT_TEXT_BASE);
    assert_eq!(p.entry, DEFAULT_TEXT_BASE);
    assert_eq!(disasm_all(&p), vec!["addi zero, zero, 0", "ecall"]);
}

#[test]
fn entry_follows_start_label() {
    let p = assemble("nop\n_start: nop\necall\n").unwrap();
    assert_eq!(p.entry, p.text_base + 4);
}

#[test]
fn labels_and_branches() {
    let p = assemble(
        r#"
        _start:
            li   t0, 4
        loop:
            addi t0, t0, -1
            bnez t0, loop
            j    done
            nop
        done:
            ecall
        "#,
    )
    .unwrap();
    let text = disasm_all(&p);
    // bnez expands to bne t0, zero, -4 (backwards to loop)
    assert!(text.iter().any(|t| t == "bne t0, zero, -4"), "{text:?}");
    // j done skips the nop: offset +8
    assert!(text.iter().any(|t| t == "jal zero, 8"), "{text:?}");
}

#[test]
fn li_small_is_one_instr_large_is_two() {
    let p = assemble("li a0, 100\nli a1, 0x12345\nli a2, -1\n").unwrap();
    let text = disasm_all(&p);
    assert_eq!(text[0], "addi a0, zero, 100");
    assert_eq!(text[1], "lui a1, 0x12");
    assert_eq!(text[2], "addi a1, a1, 837"); // 0x12345 = 0x12000 + 0x345
    assert_eq!(text[3], "addi a2, zero, -1");
    assert_eq!(p.text.len(), 4);
}

#[test]
fn li_edge_values_round_trip() {
    // Execute the lui+addi expansion mentally for tricky values.
    for value in [
        0u32,
        1,
        2047,
        2048,
        0x800,
        0xFFF,
        0x1000,
        0xFFFF_FFFF,
        0x8000_0000,
        0x7FFF_FFFF,
    ] {
        let p = assemble(&format!("li a0, {value:#x}\n")).unwrap();
        // Reconstruct the value from the encoded expansion.
        let mut acc: u32 = 0;
        for &w in &p.text {
            match decode(w).unwrap() {
                lrscwait_isa::Instr::Lui { imm, .. } => acc = imm,
                lrscwait_isa::Instr::OpImm { imm, .. } => acc = acc.wrapping_add(imm as u32),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(acc, value, "li {value:#x}");
    }
}

#[test]
fn la_of_data_label() {
    let p = assemble(
        r#"
        .text
        _start: la a0, table
        .data
        table: .word 1, 2, 3
        "#,
    )
    .unwrap();
    assert_eq!(p.symbol("table"), DEFAULT_DATA_BASE);
    assert_eq!(p.data, vec![1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0]);
    // la expands to exactly two instructions.
    assert_eq!(p.text.len(), 2);
}

#[test]
fn bss_layout_follows_data() {
    let p = assemble(
        r#"
        .data
        a: .word 7
        .bss
        buf: .space 128
        tail: .space 4
        "#,
    )
    .unwrap();
    assert_eq!(p.symbol("a"), DEFAULT_DATA_BASE);
    let bss = p.symbol("buf");
    assert!(bss >= DEFAULT_DATA_BASE + 4);
    assert_eq!(bss % 64, 0, "bss is 64-byte aligned");
    assert_eq!(p.symbol("tail"), bss + 128);
    assert_eq!(p.bss_size, 132);
}

#[test]
fn forward_reference_li_uses_two_words() {
    // `li` of a forward label must still assemble (sized as two words).
    let p = assemble(
        r#"
        _start: li a0, buf
        ecall
        .bss
        buf: .space 4
        "#,
    )
    .unwrap();
    assert_eq!(p.text.len(), 3); // lui+addi+ecall
}

#[test]
fn equ_and_define_constants() {
    let p = Assembler::new()
        .define("N", 32)
        .assemble(
            r#"
            .equ STRIDE, N * 4
            _start: li a0, STRIDE
            "#,
        )
        .unwrap();
    let text = disasm_all(&p);
    assert_eq!(text[0], "addi a0, zero, 128");
}

#[test]
fn align_pads_with_nops_in_text() {
    let p = assemble("nop\n.align 4\ntarget: nop\n").unwrap();
    assert_eq!(p.symbol("target") % 16, 0);
    assert_eq!(p.text.len(), 5); // nop + 3 pad nops + target nop
}

#[test]
fn align_in_data() {
    let p = assemble(
        r#"
        .data
        a: .word 1
        .align 6
        b: .word 2
        "#,
    )
    .unwrap();
    assert_eq!(p.symbol("b") % 64, 0);
}

#[test]
fn atomics_and_custom_instructions() {
    let p = assemble(
        r#"
        lr.w     t0, (a0)
        sc.w     t1, t0, (a0)
        lrwait.w t0, (a0)
        scwait.w t1, t0, (a0)
        mwait.w  t2, t3, (a1)
        amoadd.w t0, t1, (a2)
        "#,
    )
    .unwrap();
    assert_eq!(
        disasm_all(&p),
        vec![
            "lr.w t0, (a0)",
            "sc.w t1, t0, (a0)",
            "lrwait.w t0, (a0)",
            "scwait.w t1, t0, (a0)",
            "mwait.w t2, t3, (a1)",
            "amoadd.w t0, t1, (a2)",
        ]
    );
}

#[test]
fn csr_access_forms() {
    let p = assemble(
        r#"
        csrr a0, mhartid
        rdcycle a1
        rdhartid a2
        csrrs a3, cycle, zero
        "#,
    )
    .unwrap();
    let text = disasm_all(&p);
    assert_eq!(text[0], "csrrs a0, mhartid, zero");
    assert_eq!(text[1], "csrrs a1, cycle, zero");
    assert_eq!(text[2], "csrrs a2, mhartid, zero");
    assert_eq!(text[3], "csrrs a3, cycle, zero");
}

#[test]
fn memory_operand_forms() {
    let p = assemble(
        r#"
        .equ OFF, 8
        lw a0, (a1)
        lw a0, 4(a1)
        lw a0, OFF(a1)
        sw a0, OFF*2(a1)
        "#,
    )
    .unwrap();
    let text = disasm_all(&p);
    assert_eq!(text[0], "lw a0, 0(a1)");
    assert_eq!(text[1], "lw a0, 4(a1)");
    assert_eq!(text[2], "lw a0, 8(a1)");
    assert_eq!(text[3], "sw a0, 16(a1)");
}

#[test]
fn comments_and_separators() {
    let p = assemble("nop # comment\nnop // another\nnop; nop ; nop\n").unwrap();
    assert_eq!(p.text.len(), 5);
}

#[test]
fn multiple_labels_one_line() {
    let p = assemble("a: b: c: nop\n").unwrap();
    assert_eq!(p.symbol("a"), p.symbol("b"));
    assert_eq!(p.symbol("b"), p.symbol("c"));
}

#[test]
fn word_in_text_section() {
    let p = assemble(".text\ntable: .word 0xdeadbeef, 42\n").unwrap();
    assert_eq!(p.text, vec![0xdead_beef, 42]);
}

#[test]
fn error_cases_report_lines() {
    let cases = [
        ("nop\nbadop a0\n", 2, "unknown mnemonic"),
        ("addi a0, a1\n", 1, "expects 3"),
        ("lw a0, 4(q9)\n", 1, "unknown register"),
        ("j nowhere\n", 1, "undefined symbol"),
        ("addi a0, a0, 5000\n", 1, "12 bits"),
        (".data\nx: .word 1\nx: .word 2\n", 3, "duplicate"),
        (".data\nnop\n", 2, "outside .text"),
        (".bss\nv: .word 3\n", 2, "not allowed"),
        (".unknown 3\n", 1, "unknown directive"),
        ("slli a0, a0, 40\n", 1, "out of range"),
        // A location counter is an address: it must not wrap, neither in
        // one step nor by a `.word` on top of a huge `.space` ...
        (".data\n.space 0xfffffff0\n.word 1\n", 2, "address space"),
        (".data\n.space 0xfffffefc\n.word 1, 2\n", 3, "address space"),
        (".bss\n.space 0xffffffff\n.space 5\n", 3, "address space"),
        // ... and the bss, placed after the data, must fit below 2^32 too.
        (
            ".data\nv: .word 1\n.bss\n.space 0xffffff00\n",
            4,
            "address space",
        ),
    ];
    for (src, line, needle) in cases {
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, line, "source: {src}");
        assert!(
            e.message.contains(needle),
            "error `{}` should mention `{needle}`",
            e.message
        );
    }
}

#[test]
fn branch_out_of_range_detected() {
    let mut src = String::from("_start: beq a0, a1, far\n");
    for _ in 0..2000 {
        src.push_str("nop\n");
    }
    src.push_str("far: ecall\n");
    let e = assemble(&src).unwrap_err();
    assert!(e.message.contains("out of range"), "{}", e.message);
}

#[test]
fn custom_bases() {
    let p = Assembler::new()
        .text_base(0x1000)
        .data_base(0x2000)
        .assemble(".text\n_start: nop\n.data\nv: .word 9\n")
        .unwrap();
    assert_eq!(p.entry, 0x1000);
    assert_eq!(p.symbol("v"), 0x2000);
}

#[test]
fn source_lines_track_words() {
    let p = assemble("nop\nli a0, 0x12345\nnop\n").unwrap();
    assert_eq!(p.source_lines, vec![1, 2, 2, 3]);
}

#[test]
fn program_disassemble_helper() {
    let p = assemble("nop\necall\n").unwrap();
    let listing = p.disassemble();
    assert_eq!(listing.len(), 2);
    assert_eq!(listing[0].0, p.text_base);
    assert_eq!(listing[1].2, "ecall");
}

#[test]
fn every_assembled_word_decodes() {
    // Generate random but valid programs and confirm every emitted word
    // decodes (i.e. the assembler never emits illegal encodings). The
    // deterministic LCG seeds make any failure reproduce exactly.
    for seed in 1u64..=64 {
        let mut state = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = 1 + next() % 200;
        let mut src = String::from("_start:\n");
        for _ in 0..n {
            match next() % 8 {
                0 => src.push_str("addi a0, a0, 1\n"),
                1 => src.push_str(&format!("li t0, {}\n", next() as u32)),
                2 => src.push_str("amoadd.w t1, t0, (a1)\n"),
                3 => src.push_str("lrwait.w t0, (a1)\n"),
                4 => src.push_str("mul s0, s1, s2\n"),
                5 => src.push_str("lw a2, 8(sp)\n"),
                6 => src.push_str("sw a2, 12(sp)\n"),
                _ => src.push_str("nop\n"),
            }
        }
        src.push_str("ecall\n");
        let p = assemble(&src).unwrap();
        for &w in &p.text {
            assert!(decode(w).is_ok(), "seed {seed}: {w:#010x} must decode");
        }
    }
}

#[test]
fn character_literals_do_not_end_the_statement() {
    // `#`, `;`, `//` and `,` inside a character literal are operands, not
    // a comment, a statement separator or an operand separator.
    let p = assemble(
        "li t0, '#'\n\
         li t1, ';' ; li t2, '/' // a real comment\n\
         li t3, ',' # another\n\
         .data\nv: .word '#', ';'\n",
    )
    .unwrap();
    assert_eq!(
        disasm_all(&p),
        vec![
            "addi t0, zero, 35",
            "addi t1, zero, 59",
            "addi t2, zero, 47",
            "addi t3, zero, 44",
        ]
    );
    assert_eq!(p.data, vec![35, 0, 0, 0, 59, 0, 0, 0]);
}

#[test]
fn shifts_by_32_or_more_are_errors() {
    for (src, amount) in [
        ("li t0, 1 << 32\n", 32),
        ("nop\nli t0, 1 >> 33\n", 33),
        (".equ X, 4 << 40\n", 40),
    ] {
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, src.lines().count() as u32, "source: {src}");
        assert!(
            e.message
                .contains(&format!("shift amount {amount} out of range")),
            "error `{}` should name the amount {amount}",
            e.message
        );
    }
    let p = assemble("li t0, 1 << 31\n").unwrap();
    assert_eq!(disasm_all(&p), vec!["lui t0, 0x80000", "addi t0, t0, 0"]);
}

#[test]
fn li_of_the_location_counter_reserves_two_words() {
    // `.` is not final while pass 1 sizes the `li`, so it gets the
    // two-word expansion, and the label after it lands after both words.
    let p = assemble("nop\nhere: li t0, .\nafter: nop\n").unwrap();
    assert_eq!(p.symbol("after"), p.symbol("here") + 8);
    let text = disasm_all(&p);
    assert_eq!(text[1], "lui t0, 0x400");
    assert_eq!(text[2], "addi t0, t0, 4");
}

#[test]
fn li_sized_before_a_redefinition_is_an_error() {
    // One word was reserved while X was 1; the final X needs two.
    let e = assemble(".equ X, 1\nli t0, X\n.equ X, 5000\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("redefined"), "{}", e.message);
}

#[test]
fn mnemonics_are_case_insensitive() {
    let upper = assemble("_start: LI a0, 0x12345\n  AddI a0, a0, 1\n  BNEZ a0, _start\n").unwrap();
    let lower = assemble("_start: li a0, 0x12345\n  addi a0, a0, 1\n  bnez a0, _start\n").unwrap();
    assert_eq!(upper.text, lower.text);
    let e = assemble("nop\nBADOP a0\n").unwrap_err();
    assert_eq!(
        (e.line, e.message.as_str()),
        (2, "unknown mnemonic `badop`")
    );
}
