//! TLE text parsing and emission.
//!
//! The format is the classic NORAD fixed-column layout documented by
//! CelesTrak (reference [1] of the paper). Parsing is strict: wrong line
//! numbers, malformed fields and checksum mismatches are reported as
//! [`TleError`] values, never panics — catalogue files in the wild contain
//! plenty of damage.
//!
//! Emission ([`Tle::to_lines`]) produces byte-exact standard layout and is
//! round-trip tested against the parser property-style.

use crate::elements::{OrbitalElements, Tle};
use std::fmt;

/// Errors produced by the TLE parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TleError {
    /// A line is shorter than the 68 columns the format requires.
    LineTooShort {
        /// Which line (1 or 2).
        line: u8,
        /// Actual length in bytes.
        len: usize,
    },
    /// The first column did not carry the expected line number.
    BadLineNumber {
        /// Which line was expected (1 or 2).
        expected: u8,
    },
    /// The mod-10 checksum in column 69 does not match the line contents.
    BadChecksum {
        /// Which line (1 or 2).
        line: u8,
        /// Checksum computed over the line.
        computed: u8,
        /// Checksum stated in the line.
        stated: u8,
    },
    /// A numeric field failed to parse.
    BadField {
        /// Which line (1 or 2).
        line: u8,
        /// Field name.
        field: &'static str,
    },
    /// Lines 1 and 2 disagree on the catalogue number.
    CatalogMismatch {
        /// Catalogue number on line 1.
        line1: u32,
        /// Catalogue number on line 2.
        line2: u32,
    },
    /// A 3LE record was truncated (name line without both element lines).
    TruncatedRecord,
}

impl fmt::Display for TleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TleError::LineTooShort { line, len } => {
                write!(f, "TLE line {line} too short ({len} bytes, need 68)")
            }
            TleError::BadLineNumber { expected } => {
                write!(f, "TLE line does not start with '{expected}'")
            }
            TleError::BadChecksum {
                line,
                computed,
                stated,
            } => write!(
                f,
                "TLE line {line} checksum mismatch (computed {computed}, stated {stated})"
            ),
            TleError::BadField { line, field } => {
                write!(f, "TLE line {line}: malformed field '{field}'")
            }
            TleError::CatalogMismatch { line1, line2 } => write!(
                f,
                "TLE lines disagree on catalogue number ({line1} vs {line2})"
            ),
            TleError::TruncatedRecord => write!(f, "truncated 3LE record"),
        }
    }
}

impl std::error::Error for TleError {}

/// Mod-10 checksum over the first 68 columns: digits count their value,
/// minus signs count 1, everything else counts 0.
pub fn checksum(line: &str) -> u8 {
    let mut sum = 0u32;
    for b in line.bytes().take(68) {
        match b {
            b'0'..=b'9' => sum += u32::from(b - b'0'),
            b'-' => sum += 1,
            _ => {}
        }
    }
    (sum % 10) as u8
}

/// Extracts a trimmed substring by 1-indexed inclusive column range.
fn cols(line: &str, from: usize, to: usize) -> &str {
    let bytes = line.as_bytes();
    let start = from - 1;
    let end = to.min(bytes.len());
    std::str::from_utf8(&bytes[start..end]).unwrap_or("").trim()
}

/// Parses a plain decimal field: an optional sign, digits, at most one
/// point. `f64::from_str` alone would also take `NaN`, `inf` and exponent
/// forms, none of which the format has and all of which fit the columns;
/// what passes here is finite.
fn parse_f64(
    line: &str,
    from: usize,
    to: usize,
    lineno: u8,
    field: &'static str,
) -> Result<f64, TleError> {
    let s = cols(line, from, to);
    s.parse::<f64>()
        .ok()
        .filter(|_| {
            s.bytes()
                .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'+' | b'-'))
        })
        .ok_or(TleError::BadField {
            line: lineno,
            field,
        })
}

fn parse_u32(
    line: &str,
    from: usize,
    to: usize,
    lineno: u8,
    field: &'static str,
) -> Result<u32, TleError> {
    let s = cols(line, from, to);
    if s.is_empty() {
        return Ok(0);
    }
    s.parse::<u32>().map_err(|_| TleError::BadField {
        line: lineno,
        field,
    })
}

/// Parses the "assumed decimal point, explicit exponent" field used for
/// nddot and B*: `±MMMMM±E` means `±0.MMMMM × 10^±E`.
fn parse_exp_field(s: &str, lineno: u8, field: &'static str) -> Result<f64, TleError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(0.0);
    }
    let bytes = s.as_bytes();
    // The exponent is the trailing signed digit; everything before is the
    // signed mantissa digits.
    if bytes.len() < 2 {
        return Err(TleError::BadField {
            line: lineno,
            field,
        });
    }
    // Find the exponent sign: the last '+' or '-' that is not at index 0.
    let split = s
        .rfind(['+', '-'])
        .filter(|&i| i > 0)
        .ok_or(TleError::BadField {
            line: lineno,
            field,
        })?;
    let (mant_str, exp_str) = s.split_at(split);
    let mant_digits = mant_str.trim_start_matches(['+', '-']);
    if mant_digits.is_empty() || !mant_digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(TleError::BadField {
            line: lineno,
            field,
        });
    }
    let mant: f64 = mant_digits.parse::<u64>().map_err(|_| TleError::BadField {
        line: lineno,
        field,
    })? as f64
        / 10f64.powi(mant_digits.len() as i32);
    let sign = if mant_str.starts_with('-') { -1.0 } else { 1.0 };
    let exp: i32 = exp_str.parse::<i32>().map_err(|_| TleError::BadField {
        line: lineno,
        field,
    })?;
    // The field is wide enough for an exponent that overflows.
    Some(sign * mant * 10f64.powi(exp))
        .filter(|v| v.is_finite())
        .ok_or(TleError::BadField {
            line: lineno,
            field,
        })
}

/// Formats a value into the `±MMMMM±E` assumed-decimal exponent field
/// (8 columns, leading space for positive sign).
fn format_exp_field(v: f64) -> String {
    if v == 0.0 {
        return " 00000+0".to_string();
    }
    let sign = if v < 0.0 { '-' } else { ' ' };
    let mag = v.abs();
    // Want mag = 0.MMMMM * 10^exp with MMMMM in [10000, 99999].
    let mut exp = mag.log10().floor() as i32 + 1;
    let mut mant = (mag / 10f64.powi(exp) * 1e5).round() as u64;
    if mant >= 100_000 {
        mant /= 10;
        exp += 1;
    }
    let exp_sign = if exp < 0 { '-' } else { '+' };
    format!("{sign}{mant:05}{exp_sign}{}", exp.abs())
}

impl Tle {
    /// Parses a TLE from its (optional) name line and the two element lines.
    ///
    /// Checksums are verified; all structural and numeric errors are
    /// reported as [`TleError`].
    pub fn parse(name: &str, line1: &str, line2: &str) -> Result<Tle, TleError> {
        for (lineno, line) in [(1u8, line1), (2u8, line2)] {
            if line.len() < 68 {
                return Err(TleError::LineTooShort {
                    line: lineno,
                    len: line.len(),
                });
            }
        }
        if !line1.starts_with('1') {
            return Err(TleError::BadLineNumber { expected: 1 });
        }
        if !line2.starts_with('2') {
            return Err(TleError::BadLineNumber { expected: 2 });
        }
        for (lineno, line) in [(1u8, line1), (2u8, line2)] {
            if line.len() >= 69 {
                let stated = cols(line, 69, 69)
                    .parse::<u8>()
                    .map_err(|_| TleError::BadField {
                        line: lineno,
                        field: "checksum",
                    })?;
                let computed = checksum(line);
                if stated != computed {
                    return Err(TleError::BadChecksum {
                        line: lineno,
                        computed,
                        stated,
                    });
                }
            }
        }

        let cat1 = parse_u32(line1, 3, 7, 1, "catalog")?;
        let cat2 = parse_u32(line2, 3, 7, 2, "catalog")?;
        if cat1 != cat2 {
            return Err(TleError::CatalogMismatch {
                line1: cat1,
                line2: cat2,
            });
        }

        let classification = line1.as_bytes()[7] as char;
        let intl_designator = cols(line1, 10, 17).to_string();
        let epoch_yy = parse_u32(line1, 19, 20, 1, "epoch year")?;
        let epoch_year = if epoch_yy >= 57 {
            1900 + epoch_yy
        } else {
            2000 + epoch_yy
        };
        let epoch_day = parse_f64(line1, 21, 32, 1, "epoch day")?;
        let mean_motion_dot = parse_f64(line1, 34, 43, 1, "ndot")?;
        let mean_motion_ddot = parse_exp_field(cols(line1, 45, 52), 1, "nddot")?;
        let bstar = parse_exp_field(cols(line1, 54, 61), 1, "bstar")?;
        let element_set = parse_u32(line1, 65, 68, 1, "element set")?;

        let inclination_deg = parse_f64(line2, 9, 16, 2, "inclination")?;
        let raan_deg = parse_f64(line2, 18, 25, 2, "raan")?;
        // Digits only, behind an assumed point: 0 <= e < 1.
        let ecc_digits = cols(line2, 27, 33);
        let eccentricity = format!("0.{ecc_digits}")
            .parse::<f64>()
            .ok()
            .filter(|_| ecc_digits.bytes().all(|b| b.is_ascii_digit()))
            .ok_or(TleError::BadField {
                line: 2,
                field: "eccentricity",
            })?;
        let arg_perigee_deg = parse_f64(line2, 35, 42, 2, "arg perigee")?;
        let mean_anomaly_deg = parse_f64(line2, 44, 51, 2, "mean anomaly")?;
        // A satellite that does not move has no orbit: its semi-major axis
        // would be infinite, and so would every position.
        let mean_motion_rev_per_day = parse_f64(line2, 53, 63, 2, "mean motion")?;
        if mean_motion_rev_per_day <= 0.0 {
            return Err(TleError::BadField {
                line: 2,
                field: "mean motion",
            });
        }
        let rev_number = parse_u32(line2, 64, 68, 2, "rev number")?;

        Ok(Tle {
            name: name.trim().to_string(),
            elements: OrbitalElements {
                catalog_number: cat1,
                classification,
                intl_designator,
                epoch_year,
                epoch_day,
                mean_motion_dot,
                mean_motion_ddot,
                bstar,
                element_set,
                inclination_deg,
                raan_deg,
                eccentricity,
                arg_perigee_deg,
                mean_anomaly_deg,
                mean_motion_rev_per_day,
                rev_number,
            },
        })
    }

    /// Emits the TLE back to its standard three-line form
    /// `(name, line1, line2)`, with checksums computed.
    pub fn to_lines(&self) -> (String, String, String) {
        let e = &self.elements;
        let yy = e.epoch_year % 100;
        // ndot prints as sign + ".NNNNNNNN".
        let ndot_sign = if e.mean_motion_dot < 0.0 { '-' } else { ' ' };
        let ndot_frac = format!("{:.8}", e.mean_motion_dot.abs());
        let ndot_str = ndot_frac.trim_start_matches('0');

        let mut line1 = format!(
            "1 {:05}{} {:<8} {:02}{:012.8} {}{:>9} {} {} 0 {:4}",
            e.catalog_number,
            e.classification,
            e.intl_designator,
            yy,
            e.epoch_day,
            ndot_sign,
            ndot_str,
            format_exp_field(e.mean_motion_ddot),
            format_exp_field(e.bstar),
            e.element_set,
        );
        line1.truncate(68);
        while line1.len() < 68 {
            line1.push(' ');
        }
        let c1 = checksum(&line1);
        line1.push((b'0' + c1) as char);

        let ecc_digits = format!("{:.7}", e.eccentricity);
        let ecc_digits = &ecc_digits[2..9]; // strip "0."

        let mut line2 = format!(
            "2 {:05} {:8.4} {:8.4} {} {:8.4} {:8.4} {:11.8}{:5}",
            e.catalog_number,
            e.inclination_deg,
            e.raan_deg,
            ecc_digits,
            e.arg_perigee_deg,
            e.mean_anomaly_deg,
            e.mean_motion_rev_per_day,
            e.rev_number,
        );
        line2.truncate(68);
        while line2.len() < 68 {
            line2.push(' ');
        }
        let c2 = checksum(&line2);
        line2.push((b'0' + c2) as char);

        (self.name.clone(), line1, line2)
    }
}

/// Parses a whole 3LE catalogue file (repeating name/line1/line2 records,
/// blank lines tolerated). Returns the parsed records or the first error.
pub fn parse_3le(text: &str) -> Result<Vec<Tle>, TleError> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let (name, l1, l2) = if lines[i].starts_with('1') && i + 1 < lines.len() {
            // 2LE record without a name line.
            let r = ("", lines[i], lines[i + 1]);
            i += 2;
            r
        } else {
            if i + 2 >= lines.len() {
                return Err(TleError::TruncatedRecord);
            }
            let r = (lines[i], lines[i + 1], lines[i + 2]);
            i += 3;
            r
        };
        out.push(Tle::parse(name, l1, l2)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A real ISS TLE (checksums valid).
    const ISS_NAME: &str = "ISS (ZARYA)";
    const ISS_L1: &str = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
    const ISS_L2: &str = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

    #[test]
    fn parses_reference_iss_tle() -> Result<(), TleError> {
        let tle = Tle::parse(ISS_NAME, ISS_L1, ISS_L2)?;
        let e = &tle.elements;
        assert_eq!(tle.name, "ISS (ZARYA)");
        assert_eq!(e.catalog_number, 25544);
        assert_eq!(e.classification, 'U');
        assert_eq!(e.intl_designator, "98067A");
        assert_eq!(e.epoch_year, 2008);
        assert!((e.epoch_day - 264.51782528).abs() < 1e-9);
        assert!((e.mean_motion_dot - (-0.00002182)).abs() < 1e-12);
        assert!((e.bstar - (-0.11606e-4)).abs() < 1e-12);
        assert!((e.inclination_deg - 51.6416).abs() < 1e-9);
        assert!((e.raan_deg - 247.4627).abs() < 1e-9);
        assert!((e.eccentricity - 0.0006703).abs() < 1e-12);
        assert!((e.arg_perigee_deg - 130.5360).abs() < 1e-9);
        assert!((e.mean_anomaly_deg - 325.0288).abs() < 1e-9);
        assert!((e.mean_motion_rev_per_day - 15.72125391).abs() < 1e-8);
        assert_eq!(e.rev_number, 56353);
        Ok(())
    }

    #[test]
    fn checksum_of_reference_lines() {
        assert_eq!(checksum(ISS_L1), 7);
        assert_eq!(checksum(ISS_L2), 7);
    }

    #[test]
    fn rejects_bad_checksum() {
        let mut bad = ISS_L1.to_string();
        bad.replace_range(68..69, "9");
        let err = Tle::parse(ISS_NAME, &bad, ISS_L2).unwrap_err();
        assert!(matches!(err, TleError::BadChecksum { line: 1, .. }));
    }

    #[test]
    fn rejects_short_line() {
        let err = Tle::parse("X", "1 25544U", ISS_L2).unwrap_err();
        assert!(matches!(err, TleError::LineTooShort { line: 1, .. }));
    }

    #[test]
    fn rejects_wrong_line_number() {
        let err = Tle::parse(ISS_NAME, ISS_L2, ISS_L2).unwrap_err();
        assert!(matches!(err, TleError::BadLineNumber { expected: 1 }));
    }

    #[test]
    fn rejects_catalog_mismatch() {
        let mut l2 = ISS_L2.to_string();
        l2.replace_range(2..7, "11111");
        // Fix the checksum so the mismatch is what's reported.
        let c = checksum(&l2);
        l2.replace_range(68..69, &c.to_string());
        let err = Tle::parse(ISS_NAME, ISS_L1, &l2).unwrap_err();
        assert!(matches!(err, TleError::CatalogMismatch { .. }));
    }

    /// `ISS_L2` with `text` written at 1-indexed column `from` and the
    /// checksum recomputed, so only the field is at fault.
    fn iss_l2_with(from: usize, text: &str) -> String {
        let mut l2 = ISS_L2.to_string();
        l2.replace_range(from - 1..from - 1 + text.len(), text);
        let c = checksum(&l2);
        l2.replace_range(68..69, &c.to_string());
        l2
    }

    #[test]
    fn rejects_fields_that_only_f64_from_str_would_take() {
        // Every one of these parsed `Ok` when the gate was `f64::from_str`,
        // and propagated to a non-finite position.
        for (from, text, field) in [
            (53, " 0.00000000", "mean motion"),
            (53, "        NaN", "mean motion"),
            (53, "        inf", "mean motion"),
            (53, "     1e-300", "mean motion"),
            (53, "-15.7212539", "mean motion"),
            (9, "     NaN", "inclination"),
            (18, "infinity", "raan"),
            (27, "9999e99", "eccentricity"),
            (27, "-000670", "eccentricity"),
        ] {
            let l2 = iss_l2_with(from, text);
            assert_eq!(
                Tle::parse(ISS_NAME, ISS_L1, &l2).unwrap_err(),
                TleError::BadField { line: 2, field },
                "{text:?}"
            );
        }
        // The helper itself leaves a parseable line.
        assert!(Tle::parse(ISS_NAME, ISS_L1, &iss_l2_with(53, "15.72125391")).is_ok());
    }

    #[test]
    fn exp_field_overflow_is_refused() {
        assert!(parse_exp_field("1+999999", 1, "t").is_err());
        assert!(parse_exp_field("0+999999", 1, "t").is_err());
        let mut l1 = ISS_L1.to_string();
        l1.replace_range(53..61, " 1+99999");
        let c = checksum(&l1);
        l1.replace_range(68..69, &c.to_string());
        assert_eq!(
            Tle::parse(ISS_NAME, &l1, ISS_L2).unwrap_err(),
            TleError::BadField {
                line: 1,
                field: "bstar"
            }
        );
    }

    #[test]
    fn exp_field_parsing() -> Result<(), TleError> {
        assert!((parse_exp_field("34123-4", 1, "t")? - 0.34123e-4).abs() < 1e-12);
        assert!((parse_exp_field("-11606-4", 1, "t")? - (-0.11606e-4)).abs() < 1e-12);
        assert_eq!(parse_exp_field("00000+0", 1, "t")?, 0.0);
        assert_eq!(parse_exp_field("", 1, "t")?, 0.0);
        assert!(parse_exp_field("garbage", 1, "t").is_err());
        Ok(())
    }

    #[test]
    fn exp_field_formatting_round_trips() -> Result<(), TleError> {
        for &v in &[0.0, 0.34123e-4, -0.11606e-4, 0.5e-2, -0.99999e-1, 0.1e-9] {
            let s = format_exp_field(v);
            assert_eq!(s.len(), 8, "{s:?}");
            let back = parse_exp_field(s.trim(), 1, "t")?;
            let tol = v.abs().max(1e-12) * 1e-4;
            assert!((back - v).abs() <= tol, "{v} -> {s:?} -> {back}");
        }
        Ok(())
    }

    #[test]
    fn emit_parse_round_trip() -> Result<(), TleError> {
        let tle = Tle::parse(ISS_NAME, ISS_L1, ISS_L2)?;
        let (name, l1, l2) = tle.to_lines();
        let back = Tle::parse(&name, &l1, &l2)?;
        let a = &tle.elements;
        let b = &back.elements;
        assert_eq!(a.catalog_number, b.catalog_number);
        assert!((a.inclination_deg - b.inclination_deg).abs() < 1e-4);
        assert!((a.raan_deg - b.raan_deg).abs() < 1e-4);
        assert!((a.eccentricity - b.eccentricity).abs() < 1e-7);
        assert!((a.mean_motion_rev_per_day - b.mean_motion_rev_per_day).abs() < 1e-7);
        assert!((a.epoch_day - b.epoch_day).abs() < 1e-8);
        assert!((a.bstar - b.bstar).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn parse_3le_catalogue() -> Result<(), TleError> {
        let text = format!("{ISS_NAME}\n{ISS_L1}\n{ISS_L2}\n{ISS_NAME}\n{ISS_L1}\n{ISS_L2}\n");
        let cat = parse_3le(&text)?;
        assert_eq!(cat.len(), 2);
        assert_eq!(cat[0].name, "ISS (ZARYA)");
        Ok(())
    }

    #[test]
    fn parse_2le_without_names() -> Result<(), TleError> {
        let text = format!("{ISS_L1}\n{ISS_L2}\n");
        let cat = parse_3le(&text)?;
        assert_eq!(cat.len(), 1);
        assert_eq!(cat[0].name, "");
        Ok(())
    }

    #[test]
    fn parse_3le_truncated() {
        let text = format!("{ISS_NAME}\n{ISS_L1}\n");
        assert_eq!(parse_3le(&text).unwrap_err(), TleError::TruncatedRecord);
    }

    #[test]
    fn error_display_messages() {
        let e = TleError::BadChecksum {
            line: 1,
            computed: 3,
            stated: 7,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(TleError::TruncatedRecord.to_string().contains("truncated"));
    }
}
