//! An incremental flattened feature ring for streaming window scoring.
//!
//! The detection hot path needs "the last N records' features, flattened,
//! contiguous" after every push. Rebuilding that window from a history list
//! costs a fresh allocation and a gather per record; the ring instead keeps
//! a flat `Vec<f32>` holding up to `2 × cap` records and compacts the
//! oldest half away only when it fills — amortized O(width) per push, zero
//! allocation in steady state, and the window is always one contiguous
//! slice.

/// A bounded ring of fixed-width feature rows backed by one flat buffer.
#[derive(Debug, Clone)]
pub struct FeatureRing {
    flat: Vec<f32>,
    width: usize,
    cap: usize,
    /// Records currently addressable (≤ cap).
    len: usize,
}

impl FeatureRing {
    /// A ring keeping the last `cap_records` rows of `width` floats each.
    ///
    /// # Panics
    /// If `width` or `cap_records` is zero.
    pub fn new(width: usize, cap_records: usize) -> Self {
        assert!(width > 0, "feature width must be positive");
        assert!(cap_records > 0, "ring capacity must be positive");
        FeatureRing {
            flat: Vec::with_capacity(2 * cap_records * width),
            width,
            cap: cap_records,
            len: 0,
        }
    }

    /// Records currently held (saturates at the capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one feature row, evicting the oldest once full.
    ///
    /// # Panics
    /// If `row.len() != width`.
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.width, "feature row width mismatch");
        if self.flat.len() == 2 * self.cap * self.width {
            // Compact: slide the newest `cap` records to the front. This
            // touches cap·width floats once per cap pushes — amortized one
            // row per push — and never reallocates.
            let keep_from = self.flat.len() - self.cap * self.width;
            self.flat.copy_within(keep_from.., 0);
            self.flat.truncate(self.cap * self.width);
        }
        self.flat.extend_from_slice(row);
        self.len = (self.len + 1).min(self.cap);
    }

    /// Forgets every record but keeps the allocation, so a pooled ring can
    /// be handed to a different UE without carrying the old one's history.
    pub fn clear(&mut self) {
        self.flat.clear();
        self.len = 0;
    }

    /// The flattened features of the most recent `n` records, oldest first,
    /// as one contiguous slice.
    ///
    /// # Panics
    /// If fewer than `n` records are held or `n` exceeds the capacity.
    pub fn last_n(&self, n: usize) -> &[f32] {
        assert!(n <= self.len, "asked for {n} records, ring holds {}", self.len);
        &self.flat[self.flat.len() - n * self.width..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fills_evicts_and_stays_contiguous() {
        let mut ring = FeatureRing::new(2, 3);
        assert!(ring.is_empty());
        for i in 0..10u32 {
            ring.push(&[i as f32, -(i as f32)]);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.last_n(3), &[7.0, -7.0, 8.0, -8.0, 9.0, -9.0]);
        assert_eq!(ring.last_n(1), &[9.0, -9.0]);
    }

    #[test]
    fn clear_recycles_without_leaking_rows_or_capacity() {
        let mut ring = FeatureRing::new(2, 3);
        for i in 0..5u32 {
            ring.push(&[i as f32, i as f32]);
        }
        let cap = ring.flat.capacity();
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(cap, ring.flat.capacity(), "clear must keep the allocation");
        // The next owner sees only its own rows.
        ring.push(&[7.0, 8.0]);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.last_n(1), &[7.0, 8.0]);
    }

    #[test]
    fn steady_state_push_never_reallocates() {
        let mut ring = FeatureRing::new(4, 8);
        let cap_before = {
            for i in 0..8 {
                ring.push(&[i as f32; 4]);
            }
            ring.flat.capacity()
        };
        for i in 0..1_000 {
            ring.push(&[i as f32; 4]);
        }
        assert_eq!(ring.flat.capacity(), cap_before, "push must not reallocate");
        assert_eq!(ring.len(), 8);
    }

    #[test]
    #[should_panic(expected = "ring holds")]
    fn last_n_beyond_len_panics() {
        let mut ring = FeatureRing::new(1, 4);
        ring.push(&[1.0]);
        let _ = ring.last_n(2);
    }

    proptest! {
        /// The ring's window must always equal the rebuild-from-history
        /// windower: concatenate the last n rows of the full stream.
        #[test]
        fn matches_rebuild_windower(
            rows in proptest::collection::vec(
                proptest::collection::vec(-10.0f32..10.0, 3..=3),
                1..120,
            ),
            cap in 1usize..12,
        ) {
            let mut ring = FeatureRing::new(3, cap);
            let mut history: Vec<Vec<f32>> = Vec::new();
            for row in &rows {
                ring.push(row);
                history.push(row.clone());
                let n = ring.len();
                prop_assert_eq!(n, history.len().min(cap));
                // Every window size up to the held count must match the
                // naive rebuild exactly (same floats, same order).
                for want in 1..=n {
                    let rebuilt: Vec<f32> = history[history.len() - want..]
                        .iter()
                        .flatten()
                        .copied()
                        .collect();
                    prop_assert_eq!(ring.last_n(want), &rebuilt[..]);
                }
            }
        }
    }
}
