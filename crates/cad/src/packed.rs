//! Packed rows: many short `u32` lists held as one offset array plus one
//! item array, built in two passes (count, then fill) instead of one
//! `Vec` per row. The placer's net and cell-to-net lists, the router's
//! net terminals and bitgen's column groups are all stored this way.

/// Rows of `u32` items packed back to back: row `r` is
/// `items[start[r]..start[r + 1]]`.
pub(crate) struct Rows {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Rows {
    /// Packs the `(row, item)` pairs that `pairs` yields into `rows` rows,
    /// each row keeping its items in the order they were yielded (a stable
    /// counting sort). `pairs` is called twice, so it must yield the same
    /// sequence both times.
    pub(crate) fn build<I>(rows: usize, pairs: impl Fn() -> I) -> Rows
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let mut start = vec![0u32; rows + 1];
        for (r, _) in pairs() {
            start[r as usize + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        // Fill with `start[r]` as row r's cursor; each cursor ends on the
        // next row's start, so shifting the array right restores it.
        let mut items = vec![0u32; start[rows] as usize];
        for (r, item) in pairs() {
            let at = &mut start[r as usize];
            items[*at as usize] = item;
            *at += 1;
        }
        start.copy_within(..rows, 1);
        start[0] = 0;
        Rows { start, items }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The items of row `r`.
    pub(crate) fn row(&self, r: usize) -> &[u32] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// Every row in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|r| self.row(r))
    }

    /// Sorts the items of every row.
    pub(crate) fn sort_rows(&mut self) {
        for r in 0..self.len() {
            self.items[self.start[r] as usize..self.start[r + 1] as usize].sort_unstable();
        }
    }

    /// Drops consecutive repeats inside every row (`Vec::dedup` per row),
    /// compacting the items in place.
    pub(crate) fn dedup(&mut self) {
        let mut kept = 0;
        let mut begin = 0;
        for r in 0..self.len() {
            let end = self.start[r + 1] as usize;
            self.start[r] = kept as u32;
            for i in begin..end {
                if i == begin || self.items[i] != self.items[kept - 1] {
                    self.items[kept] = self.items[i];
                    kept += 1;
                }
            }
            begin = end;
        }
        let rows = self.len();
        self.start[rows] = kept as u32;
        self.items.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-row `Vec`s the packed form replaces.
    fn nested(rows: usize, pairs: &[(u32, u32)]) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); rows];
        for &(r, item) in pairs {
            out[r as usize].push(item);
        }
        out
    }

    fn unpacked(rows: &Rows) -> Vec<Vec<u32>> {
        rows.iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn matches_per_row_vecs_through_sort_and_dedup() {
        let mut rng = jitise_base::rng::SplitMix64::new(0x5EED);
        for case in 0..200 {
            let rows = case % 9;
            let pairs: Vec<(u32, u32)> = if rows == 0 {
                Vec::new()
            } else {
                (0..rng.next_below(40))
                    .map(|_| (rng.next_below(rows as u64) as u32, rng.next_below(6) as u32))
                    .collect()
            };
            let mut want = nested(rows, &pairs);
            let mut got = Rows::build(rows, || pairs.iter().copied());
            assert_eq!(got.len(), rows);
            assert_eq!(unpacked(&got), want, "build, case {case}");
            got.dedup();
            want.iter_mut().for_each(Vec::dedup);
            assert_eq!(unpacked(&got), want, "dedup, case {case}");
            got.sort_rows();
            got.dedup();
            for w in want.iter_mut() {
                w.sort_unstable();
                w.dedup();
            }
            assert_eq!(unpacked(&got), want, "sort + dedup, case {case}");
        }
    }
}
