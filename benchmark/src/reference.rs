//! Stored reference outputs of the batch workloads.
//!
//! One text file per `(workload, seed)` under `reference/`, one block
//! per scenario of the run: the matrix shape, the true-match ranks, and
//! every non-zero cell as the exact IEEE-754 bit pattern in hex (cells
//! not listed are exactly 0.0):
//!
//! ```text
//! sts-benchmark-reference 2
//! workload mall_match
//! seed 1
//! matrix 16 16
//! ranks 1 1 3 …
//! cell 0 0 3fb2c1…
//! matrix 15 15
//! …
//! ```

use std::path::PathBuf;

/// Largest absolute difference at which a cell still equals its
/// reference.
pub const CELL_TOLERANCE: f64 = 1e-9;

/// One scenario's matching output.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub ranks: Vec<usize>,
    pub cells: Vec<Vec<f64>>,
}

pub fn path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}-seed{seed}.txt"))
}

pub fn encode(workload: &str, seed: u64, matrices: &[Matrix]) -> String {
    let mut out = format!("sts-benchmark-reference 2\nworkload {workload}\nseed {seed}\n");
    for m in matrices {
        out.push_str(&format!("matrix {} {}\nranks", m.rows, m.cols));
        for rank in &m.ranks {
            out.push_str(&format!(" {rank}"));
        }
        out.push('\n');
        for (i, row) in m.cells.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v.to_bits() != 0 {
                    out.push_str(&format!("cell {i} {j} {:016x}\n", v.to_bits()));
                }
            }
        }
    }
    out
}

fn fields<T: std::str::FromStr>(line: &str, tag: &str) -> Result<Vec<T>, String> {
    line.strip_prefix(tag)
        .ok_or(format!("expected {tag:?}, found {line:?}"))?
        .split_whitespace()
        .map(|s| {
            s.parse()
                .map_err(|_| format!("bad field {s:?} in {line:?}"))
        })
        .collect()
}

pub fn decode(text: &str) -> Result<Vec<Matrix>, String> {
    let mut lines = text.lines().peekable();
    if lines.next() != Some("sts-benchmark-reference 2") {
        return Err("not a version-2 reference".into());
    }
    lines.next().ok_or("reference ends before workload")?;
    lines.next().ok_or("reference ends before seed")?;
    let mut matrices = Vec::new();
    while let Some(header) = lines.next() {
        let [rows, cols] = fields::<usize>(header, "matrix")?[..] else {
            return Err(format!("bad matrix header {header:?}"));
        };
        let ranks: Vec<usize> = fields(lines.next().ok_or("matrix without ranks")?, "ranks")?;
        if ranks.len() != rows {
            return Err(format!("{} ranks for {rows} rows", ranks.len()));
        }
        let mut cells = vec![vec![0.0; cols]; rows];
        while let Some(line) = lines.next_if(|l| l.starts_with("cell ")) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [_, i, j, hex] = f[..] else {
                return Err(format!("bad cell line {line:?}"));
            };
            let i: usize = i.parse().map_err(|_| format!("bad row in {line:?}"))?;
            let j: usize = j.parse().map_err(|_| format!("bad column in {line:?}"))?;
            let bits = u64::from_str_radix(hex, 16).map_err(|_| format!("bad hex in {line:?}"))?;
            *cells
                .get_mut(i)
                .and_then(|row| row.get_mut(j))
                .ok_or(format!("cell outside shape: {line:?}"))? = f64::from_bits(bits);
        }
        matrices.push(Matrix {
            rows,
            cols,
            ranks,
            cells,
        });
    }
    Ok(matrices)
}

/// The stored reference for `(workload, seed)`, if one exists.
pub fn load(workload: &str, seed: u64) -> Result<Option<Vec<Matrix>>, String> {
    let p = path(workload, seed);
    match std::fs::read_to_string(&p) {
        Ok(text) => decode(&text)
            .map(Some)
            .map_err(|e| format!("{}: {e}", p.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", p.display())),
    }
}

/// `(checked, equal)`: every cell within [`CELL_TOLERANCE`] and every
/// rank identical counts as one equal output.
pub fn compare(matrix: &[Vec<f64>], ranks: &[usize], r: &Matrix) -> (u64, u64) {
    let checked = (r.rows * r.cols + r.rows) as u64;
    if matrix.len() != r.rows || matrix.iter().any(|row| row.len() != r.cols) {
        // A matrix of the wrong shape matches nothing.
        return (checked, 0);
    }
    let cells = matrix
        .iter()
        .flatten()
        .zip(r.cells.iter().flatten())
        .filter(|(v, want)| (*v - *want).abs() <= CELL_TOLERANCE)
        .count();
    let same_ranks = (0..r.rows)
        .filter(|&i| ranks.get(i) == Some(&r.ranks[i]))
        .count();
    (checked, (cells + same_ranks) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Matrix> {
        vec![
            Matrix {
                rows: 2,
                cols: 2,
                ranks: vec![1, 2],
                cells: vec![vec![0.25, 0.0], vec![0.5, 0.125]],
            },
            Matrix {
                rows: 1,
                cols: 3,
                ranks: vec![1],
                cells: vec![vec![0.0, 1.0, -0.0]],
            },
        ]
    }

    #[test]
    fn encoding_round_trips() {
        let r = sample();
        let back = decode(&encode("mall_match", 3, &r)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], r[0]);
        assert_eq!(back[1].cells[0][2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn perturbed_reference_drops_answer_quality() {
        let r = sample().swap_remove(0);
        let m = r.cells.clone();
        assert_eq!(compare(&m, &r.ranks, &r), (6, 6));
        let mut cell_off = r.clone();
        cell_off.cells[1][0] += 2.0 * CELL_TOLERANCE;
        assert_eq!(compare(&m, &r.ranks, &cell_off), (6, 5));
        let mut rank_off = r.clone();
        rank_off.ranks[0] = 2;
        assert_eq!(compare(&m, &r.ranks, &rank_off), (6, 5));
        // Within tolerance still counts as equal.
        let mut tiny = r.clone();
        tiny.cells[0][0] += CELL_TOLERANCE / 2.0;
        assert_eq!(compare(&m, &r.ranks, &tiny), (6, 6));
    }
}
