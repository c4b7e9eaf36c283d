//! A small run-length codec used as the engine's block compression
//! (standing in for LevelDB's snappy; simple, real, and reversible).
//!
//! Format: a sequence of chunks, each either
//! `0x00 len u8` (a run of `len` copies of the byte, `len ≥ 4`) or
//! `0x01 len <len bytes>` (a literal span, `len ≤ 255`).

/// Compresses `data`; returns `None` when the output would not be
/// smaller (store raw instead).
pub(crate) fn compress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() / 2);
    let mut i = 0;
    let mut literal_start = 0;
    while i < data.len() {
        // Measure the run at i.
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 255 {
            run += 1;
        }
        if run >= 4 {
            flush_literals(&mut out, &data[literal_start..i]);
            out.push(0x00);
            out.push(run as u8);
            out.push(b);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
        if out.len() >= data.len() {
            return None; // incompressible
        }
    }
    flush_literals(&mut out, &data[literal_start..]);
    if out.len() < data.len() {
        Some(out)
    } else {
        None
    }
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let n = lit.len().min(255);
        out.push(0x01);
        out.push(n as u8);
        out.extend_from_slice(&lit[..n]);
        lit = &lit[n..];
    }
}

/// Decompresses a [`compress`]ed buffer.
///
/// Returns `None` on malformed input.
pub(crate) fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let tag = data[i];
        match tag {
            0x00 => {
                let len = *data.get(i + 1)? as usize;
                let b = *data.get(i + 2)?;
                out.extend(std::iter::repeat_n(b, len));
                i += 3;
            }
            0x01 => {
                let len = *data.get(i + 1)? as usize;
                let end = i + 2 + len;
                if end > data.len() {
                    return None;
                }
                out.extend_from_slice(&data[i + 2..end]);
                i = end;
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compressible_data() {
        let mut data = vec![0u8; 1000];
        data.extend_from_slice(b"hello world");
        data.extend(vec![7u8; 500]);
        let c = compress(&data).expect("highly compressible");
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_returns_none() {
        let data: Vec<u8> =
            (0..1000u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        assert!(compress(&data).is_none());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(compress(&[]).is_none());
        assert!(compress(b"ab").is_none());
        let run = vec![9u8; 64];
        let c = compress(&run).unwrap();
        assert_eq!(decompress(&c).unwrap(), run);
    }

    #[test]
    fn long_runs_split_at_255() {
        let run = vec![1u8; 1000];
        let c = compress(&run).unwrap();
        assert_eq!(decompress(&c).unwrap(), run);
        assert!(c.len() <= 15, "1000-byte run should pack into ≤5 chunks: {}", c.len());
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(&[0x42]).is_none());
        assert!(decompress(&[0x00, 10]).is_none(), "truncated run");
        assert!(decompress(&[0x01, 10, 1, 2]).is_none(), "truncated literal");
    }

    #[test]
    fn mixed_content_round_trips() {
        let mut data = Vec::new();
        for i in 0..300u32 {
            data.push((i % 7) as u8);
            if i % 5 == 0 {
                data.extend(vec![0u8; 20]);
            }
        }
        if let Some(c) = compress(&data) {
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }
}
