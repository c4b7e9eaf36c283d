//! The two byte-level helpers every layer's hand-rolled output needs
//! exactly one of: JSON string escaping and the FNV-1a hash.

use std::fmt::Write as _;

/// Escapes `s` for the inside of a JSON string literal (no surrounding
/// quotes): quote, backslash and every control character below `0x20`,
/// so the result never contains a raw quote or control.
///
/// # Examples
///
/// ```
/// assert_eq!(nob_sim::json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Stable 64-bit FNV-1a over a byte slice. Deterministic across runs and
/// platforms: the store's shard routing (an on-disk contract — it decides
/// which shard directory holds a key) and the pinned content hashes of the
/// format tests and `fig_compact` all depend on these exact values.
///
/// # Examples
///
/// ```
/// assert_eq!(nob_sim::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(nob_sim::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Maps raw bytes onto a charset chosen to stress every escaping
    /// path: quotes, backslashes, short-form and `\u` controls, and
    /// multi-byte unicode.
    fn hostile(bytes: Vec<u8>) -> String {
        const CHARSET: [char; 12] =
            ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', ' ', '/', 'a', '\u{e9}', '\u{1f980}'];
        bytes.into_iter().map(|b| CHARSET[b as usize % CHARSET.len()]).collect()
    }

    /// Inverse of [`json_escape`], strict: rejects anything but the exact
    /// escape forms the encoder emits.
    fn unescape(e: &str) -> Option<String> {
        let chars: Vec<char> = e.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if (c as u32) < 0x20 || c == '"' {
                return None; // raw control or quote: not a clean string
            }
            if c == '\\' {
                i += 1;
                match chars.get(i)? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = chars.get(i + 1..i + 5)?.iter().collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                        i += 4;
                    }
                    _ => return None,
                }
            } else {
                out.push(c);
            }
            i += 1;
        }
        Some(out)
    }

    proptest! {
        /// JSON string escaping is clean (no raw quotes or controls, no
        /// dangling or unknown escapes) and lossless.
        #[test]
        fn json_escape_round_trips_and_stays_clean(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let s = hostile(bytes);
            let e = json_escape(&s);
            let decoded = unescape(&e);
            prop_assert_eq!(decoded, Some(s), "escape output was not clean: {:?}", e);
        }
    }
}
