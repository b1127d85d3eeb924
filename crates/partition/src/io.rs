//! Partition file I/O (METIS-compatible `.part` format).
//!
//! A partition file has one line per vertex: the 0-based part id of that
//! vertex — the format `pmetis`/`gpmetis` emit and downstream HPC tooling
//! (mesh distributors, load balancers) consume.

use crate::partition::Partition;
use ff_graph::Graph;
use std::io::{BufRead, BufReader, Read, Write};

/// Writes `p` in METIS `.part` format (one part id per line).
pub fn write_partition<W: Write>(p: &Partition, out: W) -> std::io::Result<()> {
    write_assignment(p.assignment(), out)
}

/// Writes a part id per vertex in METIS `.part` format (one per line).
pub fn write_assignment<W: Write>(assignment: &[u32], mut out: W) -> std::io::Result<()> {
    let mut buf = String::with_capacity(assignment.len() * 3);
    for &a in assignment {
        buf.push_str(&a.to_string());
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
}

/// Reads a METIS `.part` file for graph `g`.
///
/// The number of parts is inferred as `max id + 1`; blank lines and `%`
/// comments are skipped.
pub fn read_partition<R: Read>(g: &Graph, input: R) -> Result<Partition, PartParseError> {
    let reader = BufReader::new(input);
    let mut assignment: Vec<u32> = Vec::with_capacity(g.num_vertices());
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let id: u32 = t
            .parse()
            .map_err(|_| PartParseError::Format(format!("bad part id `{t}` at line {lineno}")))?;
        assignment.push(id);
    }
    if assignment.len() != g.num_vertices() {
        return Err(PartParseError::Format(format!(
            "file has {} assignments for a {}-vertex graph",
            assignment.len(),
            g.num_vertices()
        )));
    }
    let k = assignment
        .iter()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    Ok(Partition::from_assignment(g, assignment, k))
}

/// Errors from [`read_partition`].
#[derive(Debug)]
pub enum PartParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the file.
    Format(String),
}

impl std::fmt::Display for PartParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartParseError::Io(e) => write!(f, "I/O error: {e}"),
            PartParseError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for PartParseError {}

impl From<std::io::Error> for PartParseError {
    fn from(e: std::io::Error) -> Self {
        PartParseError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::grid2d;

    #[test]
    fn roundtrip() {
        let g = grid2d(4, 4);
        let p = Partition::block(&g, 4);
        let mut buf = Vec::new();
        write_partition(&p, &mut buf).unwrap();
        let q = read_partition(&g, &buf[..]).unwrap();
        assert_eq!(p.assignment(), q.assignment());
        assert_eq!(q.num_parts(), 4);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let g = grid2d(1, 3);
        let text = "% partition of P3\n0\n\n1\n0\n";
        let p = read_partition(&g, text.as_bytes()).unwrap();
        assert_eq!(p.assignment(), &[0, 1, 0]);
        assert_eq!(p.num_parts(), 2);
    }

    #[test]
    fn rejects_wrong_length() {
        let g = grid2d(2, 2);
        assert!(read_partition(&g, "0\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_garbage() {
        let g = grid2d(1, 2);
        assert!(read_partition(&g, "0\nx\n".as_bytes()).is_err());
    }
}
