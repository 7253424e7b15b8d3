//! A tiny assembler for the kernel IR — text form in, validated
//! [`Program`] out — so kernels can live in fixtures or be written by
//! hand, the way PTX kernels reach GPGPU-Sim.
//!
//! Syntax (one instruction per line, `#` comments, case-insensitive
//! mnemonics):
//!
//! ```text
//! # SAXPY: y[i] = a*x[i] + y[i]
//! movi r0, 2.0
//! ld   r1, b0[tid]
//! ld   r2, b1[tid]
//! ffma r2, r0, r1, r2
//! st   b1[tid], r2
//! ```
//!
//! Memory operands are `bN[tid]`, `bN[tid+K]`, `bN[tid-K]` or `bN[K]`.
//!
//! Two optional forms support static analysis:
//!
//! * a `.buffers N` directive declares the buffer count, turning any
//!   `bM[...]` with `M ≥ N` into a parse error (without the directive,
//!   buffer ids are checked only at launch). It must come before the
//!   first instruction and may appear at most once;
//! * a trailing `# ihw-racecheck: allow(RULE) reason=...` comment on an
//!   instruction line attaches a diagnostic suppression to that
//!   instruction (see [`crate::isa::AllowMarker`]).
//!
//! Reading a register before any instruction has written it is a parse
//! error: the register file is zero-initialised, so such reads execute,
//! but they are almost always latent bugs (rule A007) and hand-written
//! kernels have no reason to rely on them.
//!
//! ```
//! use gpu_sim::asm::assemble;
//! use ihw_core::config::IhwConfig;
//! use gpu_sim::isa::WarpInterpreter;
//!
//! let prog = assemble("scale", "
//!     ld r0, b0[tid]
//!     fmul r0, r0, r0
//!     st b0[tid], r0
//! ").expect("assembles");
//! let mut bufs = vec![vec![3.0f32]];
//! WarpInterpreter::new(IhwConfig::precise()).launch(&prog, 1, &mut bufs).expect("runs");
//! assert_eq!(bufs[0][0], 9.0);
//! ```

use crate::isa::{AddrMode, Instr, Program, Reg};

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Assembles IR source text into a validated program.
///
/// The register file is sized to the highest register used, plus one.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for unknown
/// mnemonics, malformed operands, arity mismatches, registers read
/// before any write, element indices beyond `i64::MAX`, a repeated or
/// late `.buffers` directive, and (when one is present) out-of-range
/// buffer ids.
pub fn assemble(name: impl Into<String>, source: &str) -> Result<Program, AsmError> {
    let mut instrs = Vec::new();
    let mut lines: Vec<u32> = Vec::new();
    let mut allows: Vec<(usize, String, String)> = Vec::new();
    let mut max_reg = 0u8;
    // The `.buffers` count and the line that declared it.
    let mut declared_buffers: Option<(usize, usize)> = None;
    let mut defined = [false; 256];
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let (code, comment) = match raw.split_once('#') {
            Some((code, comment)) => (code, Some(comment.trim())),
            None => (raw, None),
        };
        let marker = match comment.and_then(parse_allow_marker) {
            Some(Ok(m)) => Some(m),
            Some(Err(message)) => {
                return Err(AsmError {
                    line: line_no,
                    message,
                })
            }
            None => None,
        };
        let line = code.trim();
        if line.is_empty() {
            if marker.is_some() {
                return Err(AsmError {
                    line: line_no,
                    message: "allow marker must annotate an instruction line".to_string(),
                });
            }
            continue;
        }
        if let Some(count) = line.strip_prefix(".buffers") {
            if marker.is_some() {
                return Err(AsmError {
                    line: line_no,
                    message: "allow marker must annotate an instruction line".to_string(),
                });
            }
            if let Some((_, first)) = declared_buffers {
                return Err(AsmError {
                    line: line_no,
                    message: format!("duplicate .buffers directive (first on line {first})"),
                });
            }
            if !instrs.is_empty() {
                return Err(AsmError {
                    line: line_no,
                    message: ".buffers must precede the first instruction".to_string(),
                });
            }
            let count = count.trim().parse::<usize>().map_err(|_| AsmError {
                line: line_no,
                message: format!("bad .buffers count '{}'", count.trim()),
            })?;
            declared_buffers = Some((count, line_no));
            continue;
        }
        let (mnemonic, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let operands: Vec<&str> = rest
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let err = |message: &str| AsmError {
            line: line_no,
            message: message.to_string(),
        };
        let instr = match mnemonic.to_ascii_lowercase().as_str() {
            "movi" => {
                let [d, imm] = two(&operands).map_err(&err)?;
                Instr::Movi(
                    reg(d).map_err(|m| err(&m))?,
                    immediate(imm).map_err(|m| err(&m))?,
                )
            }
            "tid" => {
                let [d] = one(&operands).map_err(&err)?;
                Instr::Tid(reg(d).map_err(|m| err(&m))?)
            }
            m @ ("fadd" | "fsub" | "fmul" | "fdiv" | "fmax") => {
                let [d, a, b] = three(&operands).map_err(&err)?;
                let (d, a, b) = (
                    reg(d).map_err(|m| err(&m))?,
                    reg(a).map_err(|m| err(&m))?,
                    reg(b).map_err(|m| err(&m))?,
                );
                match m {
                    "fadd" => Instr::Fadd(d, a, b),
                    "fsub" => Instr::Fsub(d, a, b),
                    "fmul" => Instr::Fmul(d, a, b),
                    "fdiv" => Instr::Fdiv(d, a, b),
                    _ => Instr::Fmax(d, a, b),
                }
            }
            "sel" => {
                let [d, c, a, b] = four(&operands).map_err(&err)?;
                Instr::Sel(
                    reg(d).map_err(|m| err(&m))?,
                    reg(c).map_err(|m| err(&m))?,
                    reg(a).map_err(|m| err(&m))?,
                    reg(b).map_err(|m| err(&m))?,
                )
            }
            "ffma" => {
                let [d, a, b, c] = four(&operands).map_err(&err)?;
                Instr::Ffma(
                    reg(d).map_err(|m| err(&m))?,
                    reg(a).map_err(|m| err(&m))?,
                    reg(b).map_err(|m| err(&m))?,
                    reg(c).map_err(|m| err(&m))?,
                )
            }
            m @ ("rcp" | "rsqrt" | "sqrt" | "log2") => {
                let [d, a] = two(&operands).map_err(&err)?;
                let (d, a) = (reg(d).map_err(|m| err(&m))?, reg(a).map_err(|m| err(&m))?);
                match m {
                    "rcp" => Instr::Rcp(d, a),
                    "rsqrt" => Instr::Rsqrt(d, a),
                    "sqrt" => Instr::Sqrt(d, a),
                    _ => Instr::Log2(d, a),
                }
            }
            "ld" => {
                let [d, mem] = two(&operands).map_err(&err)?;
                let (buf, mode) = memref(mem).map_err(|m| err(&m))?;
                Instr::Ld(reg(d).map_err(|m| err(&m))?, buf, mode)
            }
            "st" => {
                let [mem, s] = two(&operands).map_err(&err)?;
                let (buf, mode) = memref(mem).map_err(|m| err(&m))?;
                Instr::St(buf, mode, reg(s).map_err(|m| err(&m))?)
            }
            other => return Err(err(&format!("unknown mnemonic '{other}'"))),
        };
        // Parse-time hygiene: reads must be dominated by a write (the
        // file is zero-initialised, but relying on that is a latent
        // bug), and buffer ids must respect a `.buffers` declaration.
        for r in instr.reads() {
            if !defined[r.0 as usize] {
                return Err(AsmError {
                    line: line_no,
                    message: format!("register r{} read before any write", r.0),
                });
            }
        }
        if let Some(d) = instr.dest() {
            defined[d.0 as usize] = true;
        }
        if let (Some((declared, _)), Instr::Ld(_, buf, _) | Instr::St(buf, _, _)) =
            (declared_buffers, instr)
        {
            if buf >= declared {
                return Err(AsmError {
                    line: line_no,
                    message: format!("buffer b{buf} out of range (.buffers {declared})"),
                });
            }
        }
        for r in instr_regs(&instr) {
            max_reg = max_reg.max(r);
        }
        if let Some((rule, reason)) = marker {
            allows.push((instrs.len(), rule, reason));
        }
        instrs.push(instr);
        lines.push(line_no as u32);
    }
    // Validation errors point at the line of the first offending
    // instruction instead of a synthetic "line 0".
    let regs = max_reg.saturating_add(1).max(1);
    if let Some(idx) = instrs
        .iter()
        .position(|i| instr_regs(i).iter().any(|&r| r >= regs))
    {
        let reg = instr_regs(&instrs[idx])
            .into_iter()
            .find(|&r| r >= regs)
            .unwrap_or(max_reg);
        return Err(AsmError {
            line: lines[idx] as usize,
            message: format!("register r{reg} exceeds register file {regs}"),
        });
    }
    match Program::new(name, regs, instrs) {
        Ok(prog) => {
            let mut prog = prog.with_source_lines(lines);
            for (instr, rule, reason) in allows {
                prog = prog.with_allow(instr, rule, reason);
            }
            Ok(prog)
        }
        Err(other) => Err(AsmError {
            line: 0,
            message: other.to_string(),
        }),
    }
}

/// Recognises a `ihw-racecheck: allow(RULE) reason=...` comment.
/// Returns `None` for ordinary comments, `Some(Err(_))` for a marker
/// that is malformed (wrong shape or missing reason).
fn parse_allow_marker(comment: &str) -> Option<Result<(String, String), String>> {
    let body = comment.trim().strip_prefix("ihw-racecheck:")?.trim();
    let Some(rest) = body.strip_prefix("allow(") else {
        return Some(Err(format!("malformed racecheck marker '{body}'")));
    };
    let Some((rule, after)) = rest.split_once(')') else {
        return Some(Err("racecheck marker missing ')'".to_string()));
    };
    let rule = rule.trim();
    if rule.is_empty() {
        return Some(Err("racecheck marker names no rule".to_string()));
    }
    let Some(reason) = after.trim().strip_prefix("reason=") else {
        return Some(Err(
            "racecheck marker requires 'reason=...' justification".to_string()
        ));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Some(Err(
            "racecheck marker requires a non-empty reason".to_string()
        ));
    }
    Some(Ok((rule.to_string(), reason.to_string())))
}

fn one<'a>(ops: &[&'a str]) -> Result<[&'a str; 1], &'static str> {
    <[&str; 1]>::try_from(ops).map_err(|_| "expected 1 operand")
}

fn two<'a>(ops: &[&'a str]) -> Result<[&'a str; 2], &'static str> {
    <[&str; 2]>::try_from(ops).map_err(|_| "expected 2 operands")
}

fn three<'a>(ops: &[&'a str]) -> Result<[&'a str; 3], &'static str> {
    <[&str; 3]>::try_from(ops).map_err(|_| "expected 3 operands")
}

fn four<'a>(ops: &[&'a str]) -> Result<[&'a str; 4], &'static str> {
    <[&str; 4]>::try_from(ops).map_err(|_| "expected 4 operands")
}

fn reg(s: &str) -> Result<Reg, String> {
    let body = s
        .strip_prefix('r')
        .or_else(|| s.strip_prefix('R'))
        .ok_or_else(|| format!("expected register, got '{s}'"))?;
    body.parse::<u8>()
        .map(Reg)
        .map_err(|_| format!("bad register index '{s}'"))
}

fn immediate(s: &str) -> Result<f32, String> {
    s.parse::<f32>().map_err(|_| format!("bad immediate '{s}'"))
}

fn memref(s: &str) -> Result<(usize, AddrMode), String> {
    let (buf_part, rest) = s
        .split_once('[')
        .ok_or_else(|| format!("expected bN[...], got '{s}'"))?;
    let buf = buf_part
        .strip_prefix('b')
        .or_else(|| buf_part.strip_prefix('B'))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| format!("bad buffer name '{buf_part}'"))?;
    let inner = rest
        .strip_suffix(']')
        .ok_or_else(|| format!("missing ']' in '{s}'"))?;
    let mode = if inner == "tid" {
        AddrMode::Tid
    } else if let Some(off) = inner.strip_prefix("tid") {
        let value = off
            .parse::<i64>()
            .map_err(|_| format!("bad tid offset '{off}'"))?;
        AddrMode::TidPlus(value)
    } else {
        let index = inner
            .parse::<usize>()
            .map_err(|_| format!("bad address '{inner}'"))?;
        if i64::try_from(index).is_err() {
            return Err(format!(
                "address {index} exceeds the largest element index {}",
                i64::MAX
            ));
        }
        AddrMode::Abs(index)
    };
    Ok((buf, mode))
}

fn instr_regs(instr: &Instr) -> Vec<u8> {
    match *instr {
        Instr::Movi(d, _) | Instr::Tid(d) | Instr::Ld(d, _, _) => vec![d.0],
        Instr::St(_, _, s) => vec![s.0],
        Instr::Fadd(d, a, b)
        | Instr::Fsub(d, a, b)
        | Instr::Fmul(d, a, b)
        | Instr::Fdiv(d, a, b)
        | Instr::Fmax(d, a, b) => vec![d.0, a.0, b.0],
        Instr::Ffma(d, a, b, c) | Instr::Sel(d, a, b, c) => vec![d.0, a.0, b.0, c.0],
        Instr::Rcp(d, a) | Instr::Rsqrt(d, a) | Instr::Sqrt(d, a) | Instr::Log2(d, a) => {
            vec![d.0, a.0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::WarpInterpreter;
    use ihw_core::config::IhwConfig;

    #[test]
    fn saxpy_text_matches_canned_program() {
        let text = assemble(
            "saxpy",
            "
            movi r0, 2.0
            ld   r1, b0[tid]
            ld   r2, b1[tid]
            ffma r2, r0, r1, r2
            st   b1[tid], r2
            ",
        )
        .expect("assembles");
        assert_eq!(text.instrs(), crate::programs::saxpy(2.0).instrs());
    }

    #[test]
    fn comments_case_and_blank_lines() {
        let prog = assemble(
            "demo",
            "
            # a comment line
            MOVI R0, 1.5   # trailing comment

            FMUL r1, r0, r0
            ST b0[0], r1
            ",
        )
        .expect("assembles");
        let mut bufs = vec![vec![0.0f32]];
        WarpInterpreter::new(IhwConfig::precise())
            .launch(&prog, 1, &mut bufs)
            .expect("runs");
        assert_eq!(bufs[0][0], 2.25);
    }

    #[test]
    fn addressing_modes() {
        let prog = assemble(
            "addr",
            "
            ld r0, b0[tid+2]
            ld r1, b0[tid+1]
            ld r2, b1[7]
            fadd r0, r0, r1
            fadd r0, r0, r2
            st b2[tid], r0
            ",
        )
        .expect("assembles");
        let mut bufs = vec![
            (0..8).map(|i| i as f32).collect::<Vec<f32>>(),
            vec![0.0f32; 8],
            vec![0.0f32; 4],
        ];
        bufs[1][7] = 100.0;
        WarpInterpreter::new(IhwConfig::precise())
            .launch(&prog, 3, &mut bufs)
            .expect("runs");
        // thread 1: b0[3] + b0[2] + 100 = 105
        assert_eq!(bufs[2][1], 105.0);
        // Negative offsets parse (they are valid for tid ≥ offset).
        let neg = assemble("neg", "ld r0, b0[tid-1]\nst b1[tid], r0").expect("assembles");
        let mut bufs2 = vec![vec![9.0f32, 8.0], vec![0.0f32; 2]];
        let err = WarpInterpreter::new(IhwConfig::precise())
            .launch(&neg, 2, &mut bufs2)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::isa::ExecError::OutOfBounds { index: -1, .. }
        ));
    }

    #[test]
    fn sfu_mnemonics() {
        let prog = assemble(
            "sfu",
            "
            ld r0, b0[tid]
            sqrt r1, r0
            rsqrt r2, r0
            fmul r1, r1, r2
            rcp r1, r1
            log2 r1, r1
            st b0[tid], r1
            ",
        )
        .expect("assembles");
        let mut bufs = vec![vec![5.0f32]];
        WarpInterpreter::new(IhwConfig::precise())
            .launch(&prog, 1, &mut bufs)
            .expect("runs");
        // sqrt·rsqrt = 1, rcp(1) = 1, log2(1) = 0.
        assert!(bufs[0][0].abs() < 1e-6);
    }

    #[test]
    fn error_messages_name_the_line() {
        let err = assemble("bad", "movi r0, 1.0\nfrobnicate r1").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown mnemonic"));

        let err = assemble("bad", "fadd r0, r1").unwrap_err();
        assert!(err.message.contains("expected 3 operands"));

        let err = assemble("bad", "ld r0, q3[tid]").unwrap_err();
        assert!(err.message.contains("bad buffer name"));

        let err = assemble("bad", "movi x5, 1.0").unwrap_err();
        assert!(err.message.contains("expected register"));

        let err = assemble("bad", "ld r0, b0[tid").unwrap_err();
        assert!(err.message.contains("missing ']'"));
    }

    #[test]
    fn use_before_def_rejected_with_location() {
        let err = assemble("ubd", "movi r0, 1.0\nfadd r2, r0, r1\nst b0[tid], r2").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("r1 read before any write"), "{err}");

        let err = assemble("ubd", "st b0[tid], r0").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("r0 read before any write"));
    }

    #[test]
    fn buffers_directive_bounds_buffer_ids() {
        let err = assemble("bufs", ".buffers 2\nld r0, b0[tid]\nst b2[tid], r0").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("buffer b2 out of range"), "{err}");

        // In-range ids assemble; without the directive any id parses.
        assemble("bufs", ".buffers 2\nld r0, b1[tid]\nst b0[tid], r0").expect("assembles");
        assemble("bufs", "ld r0, b9[tid]\nst b0[tid], r0").expect("assembles");

        let err = assemble("bufs", ".buffers two\nld r0, b0[tid]").unwrap_err();
        assert!(err.message.contains("bad .buffers count"));
    }

    #[test]
    fn buffers_directive_is_single_and_leading() {
        // A late directive would leave the instructions above it
        // unchecked.
        let err = assemble("late", "ld r0, b5[tid]\n.buffers 1\nst b0[tid], r0").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            err.message.contains("precede the first instruction"),
            "{err}"
        );

        // A second directive would silently widen the first one.
        let err = assemble(
            "twice",
            ".buffers 1\nld r0, b0[tid]\n.buffers 9\nst b5[tid], r0",
        )
        .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate .buffers"), "{err}");
        assert!(err.message.contains("line 1"), "{err}");
        let err = assemble("twice", ".buffers 2\n.buffers 2\nld r0, b0[tid]").unwrap_err();
        assert_eq!(err.line, 2);

        // Comments and blank lines may precede the directive.
        assemble(
            "lead",
            "# header\n\n.buffers 1\nld r0, b0[tid]\nst b0[tid], r0",
        )
        .expect("assembles");
    }

    #[test]
    fn absolute_addresses_beyond_i64_are_rejected_with_their_value() {
        let err = assemble("huge", "ld r0, b0[18446744073709551615]\nst b0[tid], r0").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("18446744073709551615"), "{err}");
        assert!(!err.message.contains("-1"), "{err}");
        let err = assemble("huge", "movi r0, 1.0\nst b0[9223372036854775808], r0").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("9223372036854775808"), "{err}");
        // i64::MAX itself is a representable (if out-of-bounds) index.
        assemble("max", "ld r0, b0[9223372036854775807]\nst b0[tid], r0").expect("assembles");
    }

    #[test]
    fn allow_markers_attach_to_their_instruction() {
        let prog = assemble(
            "marked",
            "
            movi r0, 0.0   # ihw-racecheck: allow(A007) reason=accumulator seed
            st b0[tid], r0
            ",
        )
        .expect("assembles");
        assert!(prog.is_allowed(0, "A007"));
        assert!(!prog.is_allowed(1, "A007"));
        assert_eq!(prog.allows()[0].reason, "accumulator seed");

        // Ordinary comments are not markers.
        let plain =
            assemble("plain", "movi r0, 1.0 # just a note\nst b0[tid], r0").expect("assembles");
        assert!(plain.allows().is_empty());
    }

    #[test]
    fn malformed_or_dangling_markers_rejected() {
        let err = assemble("m", "# ihw-racecheck: allow(A007) reason=x").unwrap_err();
        assert!(err.message.contains("must annotate an instruction"));

        let err = assemble(
            "m",
            "movi r0, 1.0 # ihw-racecheck: allow(A007)\nst b0[tid], r0",
        )
        .unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("reason"), "{err}");

        let err =
            assemble("m", "movi r0, 1.0 # ihw-racecheck: suppress(A007) reason=x").unwrap_err();
        assert!(err.message.contains("malformed racecheck marker"));
    }

    #[test]
    fn source_lines_carried_into_program() {
        let prog = assemble(
            "lined",
            "# header comment\nmovi r0, 1.0\n\nfmul r1, r0, r0  # trailing\nst b0[tid], r1\n",
        )
        .expect("assembles");
        assert_eq!(prog.source_line(0), Some(2));
        assert_eq!(prog.source_line(1), Some(4));
        assert_eq!(prog.source_line(2), Some(5));
        assert_eq!(prog.source_line(3), None, "out of range");
        assert_eq!(prog.locate(1), "lined.s:4");
    }

    #[test]
    fn register_file_sized_automatically() {
        let prog = assemble("wide", "movi r7, 1.0\nst b0[0], r7").expect("assembles");
        let mut bufs = vec![vec![0.0f32]];
        WarpInterpreter::new(IhwConfig::precise())
            .launch(&prog, 1, &mut bufs)
            .expect("runs");
        assert_eq!(bufs[0][0], 1.0);
    }
}
