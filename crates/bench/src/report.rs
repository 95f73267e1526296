//! [`Report`]: the one shape every `micro` bench and every paper figure
//! reports in, and the gain percentage the paper quotes ("EC-FRM-RS
//! gains 19.2% to 33.9% higher read speed…").

use std::path::PathBuf;

use ecfrm_obs::json;

/// One value of a [`Report`] header, shape or row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A label.
    Text(String),
    /// A count or size.
    Int(u64),
    /// A measurement; non-finite means "not measured in this row".
    Num(f64),
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Text(s) => json::string(s),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => json::number(*v),
        }
    }

    /// The table cell: the digits the JSON carries, `-` where it says
    /// `null`.
    fn cell(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Num(v) if !v.is_finite() => "-".into(),
            other => other.json(),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $to:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v as $to)
            }
        }
    )*};
}
value_from!(u64 => Int as u64, usize => Int as u64, u32 => Int as u64, f64 => Num as f64);

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

/// Ordered `(column, value)` pairs.
pub type Cells = Vec<(&'static str, Value)>;

/// Build [`Cells`]: `cells! {"backend": k.name, "len": len}`.
#[macro_export]
macro_rules! cells {
    ($($col:literal : $v:expr),* $(,)?) => {
        vec![$(($col, $crate::report::Value::from($v))),*]
    };
}

/// One row of a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row(Cells);

impl Row {
    fn get(&self, col: &str) -> Option<&Value> {
        self.0.iter().find(|(c, _)| *c == col).map(|(_, v)| v)
    }

    /// The label under `col`, if the row has one.
    pub fn text(&self, col: &str) -> Option<&str> {
        match self.get(col)? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The number under `col`.
    ///
    /// # Errors
    /// The row has no such column, or nothing was measured there.
    pub fn num(&self, col: &str) -> Result<f64, String> {
        match self.get(col) {
            Some(Value::Int(i)) => Ok(*i as f64),
            Some(Value::Num(v)) if v.is_finite() => Ok(*v),
            _ => Err(format!("no number under {col:?} in {:?}", self.0)),
        }
    }
}

/// What one microbench run measured, and what produced it: a
/// provenance header (the field names `e2e` prints), the run's `shape`,
/// then rows. The text table and the JSON are two renderings of the
/// same cells, so they cannot disagree.
#[derive(Debug, Clone)]
pub struct Report {
    bench: &'static str,
    quick: bool,
    header: Row,
    shape: Cells,
    rows: Vec<Row>,
}

/// The checkout's commit, `-dirty` when the tree has uncommitted
/// changes (a number regenerated inside the change that lands it says
/// so); `unknown` outside a repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

impl Report {
    /// An empty report for `bench`, stamped with this process's
    /// provenance. `file_io_backend` is what the bench's disks read
    /// through (`mem` for `MemDisk`s, as in `e2e`).
    pub fn new(bench: &'static str, quick: bool, file_io_backend: &str, shape: Cells) -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let header = cells! {
            "bench": bench,
            "commit": git_commit().as_str(),
            "kernel_backend": ecfrm_gf::kernel::active().name,
            "file_io_backend": file_io_backend,
            "cpus": cpus,
        };
        Self {
            bench,
            quick,
            header: Row(header),
            shape,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Cells) {
        self.rows.push(Row(cells));
    }

    /// Every row, in the order appended.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The first row that shows `key` under `col` for every `(col, key)`.
    ///
    /// # Errors
    /// No such row.
    pub fn find(&self, keys: &[(&str, &str)]) -> Result<&Row, String> {
        let shows = |r: &Row, (col, key): &(&str, &str)| {
            r.get(col).map(Value::cell).as_deref() == Some(*key)
        };
        self.rows
            .iter()
            .find(|r| keys.iter().all(|k| shows(r, k)))
            .ok_or_else(|| format!("{}: no row with {keys:?}", self.bench))
    }

    /// The header's `kernel_backend`.
    pub fn kernel_backend(&self) -> &str {
        self.header.text("kernel_backend").unwrap_or_default()
    }

    /// The text rendering: header and shape as `key=value` lines, then
    /// one aligned table per run of rows that share their columns.
    pub fn table(&self) -> String {
        let line = |cells: &Cells| -> String {
            let kv = cells.iter().map(|(k, v)| format!(" {k}={}", v.cell()));
            kv.collect()
        };
        let (header, shape) = (line(&self.header.0), line(&self.shape));
        let mut out = format!("{} quick={}\nshape:{shape}\n", header.trim(), self.quick);
        let same_columns = |a: &Row, b: &Row| a.0.iter().map(|c| c.0).eq(b.0.iter().map(|c| c.0));
        for group in self.rows.chunk_by(same_columns) {
            let names = group[0].0.iter().map(|c| c.0.to_string()).collect();
            let mut lines: Vec<Vec<String>> = vec![names];
            lines.extend(
                group
                    .iter()
                    .map(|r| r.0.iter().map(|c| c.1.cell()).collect()),
            );
            let widths: Vec<usize> = (0..lines[0].len())
                .map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0))
                .collect();
            out.push('\n');
            for l in &lines {
                let mut text = format!("  {:<w$}", l[0], w = widths[0]);
                for (cell, w) in l.iter().zip(&widths).skip(1) {
                    text.push_str(&format!(" {cell:>w$}"));
                }
                out.push_str(text.trim_end());
                out.push('\n');
            }
        }
        out
    }

    /// The JSON rendering: the header fields, `quick`, `shape`, `rows`
    /// (one row per line).
    pub fn json(&self) -> String {
        let fields = |cells: &Cells| -> Vec<(String, String)> {
            let kv = cells.iter().map(|(k, v)| (k.to_string(), v.json()));
            kv.collect()
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| json::object(&fields(&r.0)))
            .collect();
        let mut top = fields(&self.header.0);
        top.push(("quick".into(), self.quick.to_string()));
        top.push(("shape".into(), json::object(&fields(&self.shape))));
        top.push(("rows".into(), format!("[\n{}\n]", rows.join(",\n"))));
        json::object(&top) + "\n"
    }

    /// Print the table and write the JSON beside it: a full run
    /// replaces the committed `BENCH_<bench>.json`, a `--quick` one
    /// lands under `target/micro/` and leaves the checkout clean.
    ///
    /// # Errors
    /// The file could not be written.
    pub fn publish(&self) -> std::io::Result<()> {
        print!("{}", self.table());
        let dir = PathBuf::from(if self.quick { "target/micro" } else { "." });
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.json())?;
        println!("wrote {}\n", path.display());
        Ok(())
    }
}

/// Percentage by which `new` exceeds `base`.
pub fn gain_pct(new: f64, base: f64) -> f64 {
    assert!(base > 0.0, "gain against non-positive baseline");
    (new / base - 1.0) * 100.0
}

/// The `p`-quantile (`p` in 0.0–1.0) of an ascending-sorted sample, by
/// the rank at or below `p`; 0 for an empty sample. The one percentile
/// every microbench row is reduced with.
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_math() {
        assert!((gain_pct(120.0, 100.0) - 20.0).abs() < 1e-12);
        assert!((gain_pct(90.0, 100.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn pct_is_the_rank_at_or_below() {
        assert_eq!(pct(&[], 0.99), 0);
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&sample, 0.0), 1);
        assert_eq!(pct(&sample, 0.50), 50);
        assert_eq!(pct(&sample, 0.99), 99);
        assert_eq!(pct(&sample, 1.0), 100);
    }

    #[test]
    fn report_renders_one_row_set_as_table_and_json() {
        for quick in [true, false] {
            let mut r = Report::new("demo", quick, "mem", cells! {"element": 4096u64});
            r.row(cells! {"setting": "local", "reads": 12u64, "mb_per_s": 1052.721});
            r.row(cells! {"setting": "re\"mote", "reads": 3u64, "mb_per_s": f64::NAN});
            r.row(cells! {"level": 128u64});
            let (table, json) = (r.table(), r.json());
            for field in [
                "bench",
                "commit",
                "kernel_backend",
                "file_io_backend",
                "cpus",
            ] {
                assert!(
                    table.contains(&format!("{field}=")),
                    "{field} not in {table}"
                );
                assert!(
                    json.contains(&format!("\"{field}\":")),
                    "{field} not in {json}"
                );
            }
            assert!(table.contains(&format!("quick={quick}")));
            assert!(json.contains(&format!("\"quick\":{quick},\"shape\":{{\"element\":4096}}")));
            // Every cell shows the same digits in both renderings; a
            // column group gets its header line once.
            for cell in ["local", "12", "1052.7210", "128"] {
                assert!(table.contains(cell) && json.contains(cell), "{cell}");
            }
            assert_eq!(table.matches("mb_per_s").count(), 1);
            assert!(table.contains("re\"mote") && json.contains(r#""re\"mote""#));
            assert!(
                table.lines().any(|l| l.ends_with(" -")),
                "unmeasured: {table}"
            );
            assert!(json.contains("\"mb_per_s\":null}"));
            let local = r.find(&[("setting", "local"), ("reads", "12")]).unwrap();
            assert_eq!(local.num("mb_per_s"), Ok(1052.721));
            assert!(local.num("setting").is_err() && r.rows()[1].num("mb_per_s").is_err());
            assert!(r.find(&[("setting", "local"), ("reads", "3")]).is_err());
        }
    }

    #[test]
    #[should_panic]
    fn gain_against_zero_panics() {
        gain_pct(1.0, 0.0);
    }
}
