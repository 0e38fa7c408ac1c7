//! Plain-text tables for the human-readable part of the output.

/// Prints `rows` under `header`, columns padded to their widest cell.
pub fn print(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(cell, width)| format!("{cell:<width$}"))
            .collect();
        println!("  {}", padded.join("  ").trim_end());
    };
    line(header.to_vec());
    line(widths.iter().map(|_| "-").collect());
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}
