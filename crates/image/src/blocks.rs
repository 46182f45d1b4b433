use crate::{Plane, BLOCK};

/// One 8×8 block of samples, the JPEG minimum coded unit.
///
/// Blocks are copied out of a [`Plane`] (see [`BlockGrid`]) so transforms
/// can work on a dense, cache-friendly buffer.
///
/// # Example
///
/// ```
/// use dcdiff_image::Block8;
///
/// let mut b = Block8::new();
/// b[(0, 0)] = 9.0;
/// assert_eq!(b[(0, 0)], 9.0);
/// assert_eq!(b.as_slice().len(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block8 {
    data: [f32; BLOCK * BLOCK],
}

impl Default for Block8 {
    fn default() -> Self {
        Self::new()
    }
}

impl Block8 {
    /// A zero-filled block.
    pub fn new() -> Self {
        Self {
            data: [0.0; BLOCK * BLOCK],
        }
    }

    /// Build a block by evaluating `f(x, y)` for `x, y in 0..8`.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = [0.0; BLOCK * BLOCK];
        for y in 0..BLOCK {
            for x in 0..BLOCK {
                data[y * BLOCK + x] = f(x, y);
            }
        }
        Self { data }
    }

    /// Borrow the 64 samples row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the 64 samples row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Mean of the 64 samples (the spatial counterpart of the DC term).
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / (BLOCK * BLOCK) as f32
    }

    /// Add `delta` to every sample (shifts the block's DC without touching
    /// its AC content).
    pub fn add_scalar(&mut self, delta: f32) {
        for v in &mut self.data {
            *v += delta;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Block8 {
    type Output = f32;

    /// Index by `(x, y)`.
    fn index(&self, (x, y): (usize, usize)) -> &f32 {
        &self.data[y * BLOCK + x]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Block8 {
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut f32 {
        &mut self.data[y * BLOCK + x]
    }
}

/// A plane reorganised as a grid of 8×8 blocks.
///
/// `BlockGrid` is the natural representation between the block transform
/// and entropy coding, and is what the DC-recovery algorithms iterate over.
///
/// # Example
///
/// ```
/// use dcdiff_image::{BlockGrid, Plane};
///
/// let p = Plane::from_fn(16, 8, |x, _| x as f32);
/// let grid = BlockGrid::from_plane(&p);
/// assert_eq!((grid.blocks_x(), grid.blocks_y()), (2, 1));
/// let back = grid.to_plane();
/// assert_eq!(back.crop_to(16, 8), p);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockGrid {
    blocks: Vec<Block8>,
    blocks_x: usize,
    blocks_y: usize,
}

impl BlockGrid {
    /// Split a plane into 8×8 blocks, padding to a block multiple by edge
    /// replication first.
    pub fn from_plane(plane: &Plane) -> Self {
        let padded = plane.pad_to_block_multiple();
        let blocks_x = padded.width() / BLOCK;
        let blocks_y = padded.height() / BLOCK;
        let mut blocks = Vec::with_capacity(blocks_x * blocks_y);
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                blocks.push(Block8::from_fn(|x, y| {
                    padded.get(bx * BLOCK + x, by * BLOCK + y)
                }));
            }
        }
        Self {
            blocks,
            blocks_x,
            blocks_y,
        }
    }

    /// Create a grid of zero blocks.
    ///
    /// # Panics
    ///
    /// Panics if either block count is zero.
    pub fn zeros(blocks_x: usize, blocks_y: usize) -> Self {
        assert!(blocks_x > 0 && blocks_y > 0, "block grid must be nonempty");
        Self {
            blocks: vec![Block8::new(); blocks_x * blocks_y],
            blocks_x,
            blocks_y,
        }
    }

    /// Number of block columns.
    pub fn blocks_x(&self) -> usize {
        self.blocks_x
    }

    /// Number of block rows.
    pub fn blocks_y(&self) -> usize {
        self.blocks_y
    }

    /// Width of the reassembled plane in samples.
    pub fn width(&self) -> usize {
        self.blocks_x * BLOCK
    }

    /// Height of the reassembled plane in samples.
    pub fn height(&self) -> usize {
        self.blocks_y * BLOCK
    }

    /// Borrow the block at block coordinates `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn block(&self, bx: usize, by: usize) -> &Block8 {
        assert!(bx < self.blocks_x && by < self.blocks_y, "block index out of bounds");
        &self.blocks[by * self.blocks_x + bx]
    }

    /// Mutably borrow the block at `(bx, by)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn block_mut(&mut self, bx: usize, by: usize) -> &mut Block8 {
        assert!(bx < self.blocks_x && by < self.blocks_y, "block index out of bounds");
        &mut self.blocks[by * self.blocks_x + bx]
    }

    /// Iterate over blocks in raster order together with their coordinates.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), &Block8)> {
        let bx = self.blocks_x;
        self.blocks
            .iter()
            .enumerate()
            .map(move |(i, b)| ((i % bx, i / bx), b))
    }

    /// Reassemble the blocks into a plane of `width() x height()` samples.
    pub fn to_plane(&self) -> Plane {
        let mut plane = Plane::new(self.width(), self.height());
        for by in 0..self.blocks_y {
            for bx in 0..self.blocks_x {
                let block = self.block(bx, by);
                for y in 0..BLOCK {
                    for x in 0..BLOCK {
                        plane.set(bx * BLOCK + x, by * BLOCK + y, block[(x, y)]);
                    }
                }
            }
        }
        plane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mean_tracks_dc() {
        let mut b = Block8::from_fn(|x, y| (x + y) as f32);
        let m0 = b.mean();
        b.add_scalar(5.0);
        assert!((b.mean() - m0 - 5.0).abs() < 1e-5);
    }

    #[test]
    fn grid_round_trip_aligned() {
        let p = Plane::from_fn(24, 16, |x, y| (x * 3 + y * 7) as f32);
        let grid = BlockGrid::from_plane(&p);
        assert_eq!(grid.blocks_x(), 3);
        assert_eq!(grid.blocks_y(), 2);
        assert_eq!(grid.to_plane(), p);
    }

    #[test]
    fn grid_pads_unaligned_planes() {
        let p = Plane::from_fn(9, 9, |x, y| (x + 10 * y) as f32);
        let grid = BlockGrid::from_plane(&p);
        assert_eq!((grid.blocks_x(), grid.blocks_y()), (2, 2));
        assert_eq!(grid.to_plane().crop_to(9, 9), p);
    }

    #[test]
    fn block_indexing_is_row_major() {
        let b = Block8::from_fn(|x, y| (y * 8 + x) as f32);
        assert_eq!(b[(3, 2)], 19.0);
        assert_eq!(b.as_slice()[19], 19.0);
    }

    #[test]
    fn iter_yields_raster_order() {
        let grid = BlockGrid::zeros(3, 2);
        let coords: Vec<_> = grid.iter().map(|(c, _)| c).collect();
        assert_eq!(coords[0], (0, 0));
        assert_eq!(coords[2], (2, 0));
        assert_eq!(coords[3], (0, 1));
        assert_eq!(coords.len(), 6);
    }
}
