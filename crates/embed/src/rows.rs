//! Where each token id's weights live during training.
//!
//! Word2Vec keeps an input row (`syn0`) and an output row (`syn1`) per
//! id. On a walk corpus over a merged graph most ids never occur: at
//! `fit-table` 8,084 of 10,297 ids are nodes §II-C merging removed, which
//! no walk visits. A [`RowLayout`] gives such ids no input row. It sorts
//! the ids into rows, the ids with a count first, in id order, then the
//! rest, in id order; rows below [`live`](RowLayout::live) have an input
//! row. Every id keeps an output row, because the negative sampler draws
//! ids with count 0 too (each owns one slot of its table).
//!
//! The trainers read tokens as rows, so the layout is applied where the
//! tokens are made (the walk stream maps each chunk of walks once),
//! never per token in the training loop. Reading the result back by id
//! goes through [`row`](RowLayout::row) once per id.

/// The row of every token id, and the count of every row.
///
/// In both layouts the rows below [`live`](RowLayout::live) go to their
/// ids in id order, so the live ids in id order are the input rows in
/// row order.
#[derive(Debug, Clone)]
pub struct RowLayout {
    /// `row_of[id]`: the id's row.
    row_of: Vec<u32>,
    /// `counts[row]`: how often the row's id occurs in the corpus.
    counts: Vec<u64>,
    /// Rows with an input row.
    live: usize,
}

impl RowLayout {
    /// Row `id` for every id of `counts` (by id), all of them with an
    /// input row: the layout of a trainer over id tokens.
    pub fn identity(counts: &[u64]) -> Self {
        Self {
            row_of: (0..row_u32(counts.len())).collect(),
            counts: counts.to_vec(),
            live: counts.len(),
        }
    }

    /// The ids of `counts` (by id) with a count first, then the rest,
    /// each group in id order; only the first group has input rows.
    pub fn dense(counts: &[u64]) -> Self {
        row_u32(counts.len());
        let live = counts.iter().filter(|&&c| c > 0).count();
        let mut row_of = vec![0u32; counts.len()];
        let mut by_row = vec![0u64; counts.len()];
        let (mut next_live, mut next_dead) = (0, live);
        for (id, &c) in counts.iter().enumerate() {
            let row = if c > 0 { &mut next_live } else { &mut next_dead };
            row_of[id] = *row as u32;
            by_row[*row] = c;
            *row += 1;
        }
        Self {
            row_of,
            counts: by_row,
            live,
        }
    }

    /// Number of ids (and of rows).
    pub fn ids(&self) -> usize {
        self.row_of.len()
    }

    /// Rows with an input row: `0..live()`.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The row of `id`.
    #[inline]
    pub fn row(&self, id: usize) -> usize {
        self.row_of[id] as usize
    }

    /// Every id's row, indexed by id.
    pub fn rows_by_id(&self) -> &[u32] {
        &self.row_of
    }

    /// Every row's count, indexed by row.
    pub fn counts_by_row(&self) -> &[u64] {
        &self.counts
    }

    /// The count of `id`.
    pub fn count(&self, id: usize) -> u64 {
        self.counts[self.row(id)]
    }

    /// The ids with an input row, in row order (which is id order).
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = usize> + '_ {
        let live = self.live;
        (0..self.ids()).filter(move |&id| self.row(id) < live)
    }
}

/// `n` ids fit `u32` rows.
fn row_u32(n: usize) -> u32 {
    u32::try_from(n).expect("fewer than 2^32 token ids")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_puts_counted_ids_first_in_id_order() {
        let layout = RowLayout::dense(&[0, 4, 0, 0, 7, 1, 0]);
        assert_eq!(layout.live(), 3);
        assert_eq!(layout.rows_by_id(), &[3, 0, 4, 5, 1, 2, 6]);
        assert_eq!(layout.counts_by_row(), &[4, 7, 1, 0, 0, 0, 0]);
        assert_eq!(layout.live_ids().collect::<Vec<_>>(), [1, 4, 5]);
        assert_eq!(layout.count(4), 7);
        assert_eq!(layout.count(3), 0);
    }

    #[test]
    fn identity_keeps_every_id_in_place_with_an_input_row() {
        let layout = RowLayout::identity(&[0, 4, 0]);
        assert_eq!(layout.live(), 3);
        assert_eq!(layout.rows_by_id(), &[0, 1, 2]);
        assert_eq!(layout.counts_by_row(), &[0, 4, 0]);
        assert_eq!(layout.live_ids().collect::<Vec<_>>(), [0, 1, 2]);
    }

    #[test]
    fn all_counted_dense_is_the_identity() {
        let counts = [3, 1, 2];
        let (dense, identity) = (RowLayout::dense(&counts), RowLayout::identity(&counts));
        assert_eq!(dense.rows_by_id(), identity.rows_by_id());
        assert_eq!(dense.counts_by_row(), identity.counts_by_row());
        assert_eq!(dense.live(), identity.live());
    }
}
