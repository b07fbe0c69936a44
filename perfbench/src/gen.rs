//! Seeded input generators. They run in a child process before anything is
//! timed and write plain files; the measured process only loads those
//! files through the library's loaders.

use std::collections::HashSet;
use std::io::{BufWriter, Write};
use std::path::Path;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf sampler over ranks `0..n` (inverse CDF by binary search).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Shape of a generated knowledge graph.
#[derive(Debug, Clone, Copy)]
pub struct KgShape {
    pub entities: usize,
    pub relations: usize,
    pub triples: usize,
    /// Entities are split into this many communities.
    pub clusters: usize,
}

/// Dimension of the hidden space the generator places communities in.
const LATENT_DIM: usize = 8;

/// Zipf exponent of tail popularity inside a community.
const TAIL_SKEW: f64 = 2.0;

/// Generates a translational knowledge graph. Entity `e` belongs to
/// community `e % clusters`; every community has a hidden position and
/// every relation a hidden translation. A triple `(h, r, t)` takes the
/// community nearest to `centre(h) + v_r` and, inside it, a Zipf-popular
/// member as the tail. Heads are Zipf(0.6)-popular and relations
/// Zipf(1)-frequent, as in real graphs; each `(h, r)` has one tail.
pub fn kg_triples(shape: KgShape, seed: u64) -> Vec<(u32, u32, u32)> {
    let KgShape {
        entities: n,
        relations: r,
        triples,
        clusters: c,
    } = shape;
    assert!(
        n >= 2 && r >= 1 && c >= 1 && c <= n,
        "degenerate shape {shape:?}"
    );
    assert!(triples <= n * r / 4, "too many triples for {n} x {r} pairs");
    let mut rng = Rng::new(seed);
    let mut gauss = || -> Vec<f64> { (0..LATENT_DIM).map(|_| rng.normal()).collect() };
    let centres: Vec<Vec<f64>> = (0..c).map(|_| gauss()).collect();
    let shifts: Vec<Vec<f64>> = (0..r).map(|_| gauss()).collect();
    // Community-level map: (community, relation) -> tail community.
    let mut tail_community = vec![0u32; c * r];
    for (ci, centre) in centres.iter().enumerate() {
        for (ri, shift) in shifts.iter().enumerate() {
            let target: Vec<f64> = centre.iter().zip(shift).map(|(a, b)| a + b).collect();
            tail_community[ci * r + ri] = nearest(&target, &centres) as u32;
        }
    }
    let mut popularity: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut popularity);
    let heads = Zipf::new(n, 0.6);
    let rels = Zipf::new(r, 1.0);
    let tails = Zipf::new(n.div_ceil(c), TAIL_SKEW);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(triples * 2);
    let mut out = Vec::with_capacity(triples);
    while out.len() < triples {
        let h = popularity[heads.sample(&mut rng)] as usize;
        let rel = rels.sample(&mut rng);
        // Community `tc` holds `tc, tc + c, ...`; the k-th is its k-th most
        // popular tail.
        let tc = tail_community[(h % c) * r + rel] as usize;
        let t = tc + c * tails.sample(&mut rng).min((n - 1 - tc) / c);
        if t != h && seen.insert((h as u32, rel as u32)) {
            out.push((h as u32, rel as u32, t as u32));
        }
    }
    out
}

/// The index of the row of `rows` closest to `target`.
fn nearest(target: &[f64], rows: &[Vec<f64>]) -> usize {
    let sq = |a: &[f64]| -> f64 { a.iter().zip(target).map(|(x, y)| (x - y) * (x - y)).sum() };
    (0..rows.len())
        .map(|i| (sq(&rows[i]), i))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, i)| i)
        .expect("non-empty candidate set")
}

/// Writes `triples` as `e<h>\tr<r>\te<t>` lines.
pub fn write_tsv(path: &Path, triples: &[(u32, u32, u32)]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for &(h, r, t) in triples {
        writeln!(w, "e{h}\tr{r}\te{t}")?;
    }
    finish(w)
}

/// Flushes and syncs a generated file, so its write-back does not overlap
/// the timed run that reads it.
fn finish(w: BufWriter<std::fs::File>) -> std::io::Result<()> {
    w.into_inner().map_err(|e| e.into_error())?.sync_all()
}

/// Shape of a generated serving table.
#[derive(Debug, Clone, Copy)]
pub struct TableShape {
    pub entities: usize,
    pub relations: usize,
    pub dim: usize,
    /// Entity rows are drawn around this many centres.
    pub centres: usize,
}

/// A clustered stacked `(N + R) × d` table: entity `e` is centre
/// `e % centres` plus small noise, relation rows are short vectors, so a
/// translated query lands near its head's cluster.
pub fn clustered_table(shape: TableShape, seed: u64) -> Vec<f32> {
    let TableShape {
        entities,
        relations,
        dim,
        centres,
    } = shape;
    let mut rng = Rng::new(seed);
    let centre_rows: Vec<Vec<f64>> = (0..centres)
        .map(|_| (0..dim).map(|_| rng.normal()).collect())
        .collect();
    let mut table = Vec::with_capacity((entities + relations) * dim);
    // Equal-sized clusters, so a probe scans about the same number of
    // candidates whichever cluster a hot query lands in.
    for e in 0..entities {
        let centre = &centre_rows[e % centres];
        table.extend(centre.iter().map(|&x| (x + 0.15 * rng.normal()) as f32));
    }
    for _ in 0..relations * dim {
        table.push((0.03 * rng.normal()) as f32);
    }
    table
}

/// Writes a stacked table in the `SPTXEMB1` format: the magic, `u64` row
/// and column counts, then the rows as little-endian `f32`.
pub fn write_table(path: &Path, rows: usize, cols: usize, data: &[f32]) -> std::io::Result<()> {
    assert_eq!(data.len(), rows * cols, "table shape");
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"SPTXEMB1")?;
    w.write_all(&(rows as u64).to_le_bytes())?;
    w.write_all(&(cols as u64).to_le_bytes())?;
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    finish(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: KgShape = KgShape {
        entities: 300,
        relations: 7,
        triples: 500,
        clusters: 15,
    };

    #[test]
    fn same_seed_same_graph() {
        assert_eq!(kg_triples(SHAPE, 5), kg_triples(SHAPE, 5));
        assert_ne!(kg_triples(SHAPE, 5), kg_triples(SHAPE, 6));
        let t = TableShape {
            entities: 50,
            relations: 3,
            dim: 4,
            centres: 5,
        };
        assert_eq!(clustered_table(t, 9), clustered_table(t, 9));
        assert_ne!(clustered_table(t, 9), clustered_table(t, 10));
    }

    #[test]
    fn same_seed_same_files() {
        let dir = std::env::temp_dir().join(format!("perfbench-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.tsv"), dir.join("b.tsv"));
        write_tsv(&a, &kg_triples(SHAPE, 11)).unwrap();
        write_tsv(&b, &kg_triples(SHAPE, 11)).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn graph_has_requested_shape_and_unique_pairs() {
        let t = kg_triples(SHAPE, 1);
        assert_eq!(t.len(), SHAPE.triples);
        let pairs: HashSet<(u32, u32)> = t.iter().map(|&(h, r, _)| (h, r)).collect();
        assert_eq!(pairs.len(), t.len());
        for &(h, r, tl) in &t {
            assert!((h as usize) < SHAPE.entities && (tl as usize) < SHAPE.entities);
            assert!((r as usize) < SHAPE.relations && h != tl);
        }
    }

    #[test]
    fn table_file_has_header_and_rows() {
        let dir = std::env::temp_dir().join(format!("perfbench-tab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.emb");
        write_table(&path, 2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], b"SPTXEMB1");
        assert_eq!(bytes.len(), 24 + 6 * 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
