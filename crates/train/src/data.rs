//! Synthetic tokenized corpus — the stand-in for the paper's dataset.
//!
//! §4.1 trains on a 79 K-record subset of OSCAR-en tokenized with the
//! LLaMA2 tokenizer (vocab 32 000, sequence length 2048). Dataset
//! *content* never touches the offloading path — only batch shapes and
//! token counts do — so the substitute generates deterministic token
//! sequences with a Zipfian-ish id distribution and exposes the same
//! accounting the trainer needs (tokens per micro-step, records consumed).

/// A deterministic synthetic corpus of fixed-length token records.
#[derive(Clone, Debug)]
pub struct SyntheticCorpus {
    /// Vocabulary size (LLaMA2: 32 000).
    pub vocab_size: u32,
    /// Tokens per record (paper: 2048).
    pub seq_len: usize,
    /// Records in the corpus (paper subset: 79 000).
    pub records: usize,
    seed: u64,
}

impl SyntheticCorpus {
    /// The paper's configuration: 79 K records × 2048 tokens, vocab 32 000.
    pub fn paper_default(seed: u64) -> Self {
        SyntheticCorpus {
            vocab_size: 32_000,
            seq_len: 2048,
            records: 79_000,
            seed,
        }
    }

    /// A small corpus for tests and examples.
    pub fn small(seed: u64) -> Self {
        SyntheticCorpus {
            vocab_size: 1_000,
            seq_len: 64,
            records: 256,
            seed,
        }
    }

    /// Total tokens in the corpus.
    pub fn total_tokens(&self) -> u64 {
        self.records as u64 * self.seq_len as u64
    }

    /// Generates record `index` (0-based, wraps modulo the corpus so
    /// epochs repeat deterministically). Token ids follow a skewed
    /// distribution: low ids are far more frequent, like a real
    /// tokenizer's output.
    pub fn record(&self, index: u64) -> Vec<u32> {
        let rec = index % self.records as u64;
        let mut state = self
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(rec.wrapping_mul(0xD1B54A32D192ED03));
        (0..self.seq_len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = ((state >> 33) as f64 + 1.0) / (1u64 << 31) as f64; // (0, 1]
                                                                            // Skew toward low ids: id ∝ u³ over the vocabulary.
                let skewed = u * u * u;
                ((skewed * self.vocab_size as f64) as u32).min(self.vocab_size - 1)
            })
            .collect()
    }

    /// Iterator over micro-batches: each yields `microbatch` records,
    /// advancing a cursor (one "data-parallel rank"'s stream when `stride`
    /// ranks round-robin the corpus).
    pub fn batches(&self, rank: u64, stride: u64, microbatch: usize) -> BatchIter<'_> {
        assert!(stride >= 1 && microbatch >= 1, "degenerate batch config");
        BatchIter {
            corpus: self,
            cursor: rank,
            stride,
            microbatch,
        }
    }
}

/// Iterator returned by [`SyntheticCorpus::batches`]. Infinite (wraps
/// epochs), like a pre-training data loader.
pub struct BatchIter<'a> {
    corpus: &'a SyntheticCorpus,
    cursor: u64,
    stride: u64,
    microbatch: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = Vec<Vec<u32>>;

    fn next(&mut self) -> Option<Self::Item> {
        let batch = (0..self.microbatch)
            .map(|i| self.corpus.record(self.cursor + i as u64 * self.stride))
            .collect();
        self.cursor += self.microbatch as u64 * self.stride;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_4_1() {
        let c = SyntheticCorpus::paper_default(1);
        assert_eq!(c.vocab_size, 32_000);
        assert_eq!(c.seq_len, 2048);
        assert_eq!(c.records, 79_000);
        assert_eq!(c.total_tokens(), 79_000 * 2048);
    }

    #[test]
    fn records_are_deterministic_and_in_vocab() {
        let c = SyntheticCorpus::small(7);
        let a = c.record(5);
        let b = c.record(5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.iter().all(|&t| t < c.vocab_size));
        assert_ne!(c.record(5), c.record(6), "distinct records differ");
    }

    #[test]
    fn epochs_wrap_deterministically() {
        let c = SyntheticCorpus::small(7);
        assert_eq!(c.record(3), c.record(3 + c.records as u64));
    }

    #[test]
    fn distribution_is_skewed_toward_low_ids() {
        let c = SyntheticCorpus::small(11);
        let mut low = 0usize;
        let mut total = 0usize;
        for r in 0..64 {
            for t in c.record(r) {
                total += 1;
                if t < c.vocab_size / 4 {
                    low += 1;
                }
            }
        }
        // u³ skew puts ~63% of mass in the lowest quarter of the vocab.
        let frac = low as f64 / total as f64;
        assert!(frac > 0.5, "low-id fraction {frac}");
    }

    #[test]
    fn rank_streams_are_disjoint_within_a_pass() {
        let c = SyntheticCorpus::small(3);
        let mut r0 = c.batches(0, 2, 2);
        let mut r1 = c.batches(1, 2, 2);
        let b0 = r0.next().unwrap(); // records 0, 2
        let b1 = r1.next().unwrap(); // records 1, 3
        assert_eq!(b0[0], c.record(0));
        assert_eq!(b0[1], c.record(2));
        assert_eq!(b1[0], c.record(1));
        assert_eq!(b1[1], c.record(3));
    }
}
