//! Input→output maps: the product of every mapping operation.
//!
//! A *map* is the tuple `(input point index, output point index, weight
//! index)` (paper §2). Point cloud convolution iterates over the maps,
//! multiplies the input feature by the weight matrix selected by the weight
//! index and aggregates the partial sum into the output point.
//!
//! [`MapTable`] stores the maps in **structure-of-arrays** form — one
//! contiguous input-index array and one output-index array, CSR-sliced by
//! weight group — so the gather–GEMM–scatter executor consumes index
//! slices directly ([`MapGroup::inputs`] feeds the gather with zero
//! per-group allocation) and group scans stream linear memory.
//!
//! [`KernelMap`] packages a [`MapTable`] together with the geometry it
//! connects — the exact form the gather–GEMM–scatter executor consumes
//! for SparseConv layers (unit stride, stride-`s` downsampling, and
//! transposed upsampling on the decoder path).

use crate::index::{default_backend, MappingBackend};
use crate::VoxelCloud;

/// One `(input, output, weight)` map tuple.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MapEntry {
    /// Index of the input point in the input cloud.
    pub input: u32,
    /// Index of the output point in the output cloud.
    pub output: u32,
    /// Index of the weight matrix (kernel offset index for SparseConv,
    /// always 0 for shared-weight PointNet++-style neighborhoods).
    pub weight: u16,
}

impl MapEntry {
    /// Creates a map entry.
    pub fn new(input: u32, output: u32, weight: u16) -> Self {
        MapEntry { input, output, weight }
    }
}

/// The maps of one weight group, viewed as parallel index slices.
///
/// `inputs()[i] -> outputs()[i]` is the `i`-th map of the group; the
/// slices borrow the table's SoA storage, so gathering by
/// [`MapGroup::inputs`] costs no allocation or copy.
#[derive(Copy, Clone, Debug)]
pub struct MapGroup<'a> {
    inputs: &'a [u32],
    outputs: &'a [u32],
    weight: u16,
}

impl<'a> MapGroup<'a> {
    /// Input point index of every map in the group, in emission order.
    pub fn inputs(&self) -> &'a [u32] {
        self.inputs
    }

    /// Output point index of every map in the group, in emission order
    /// (ascending for tables built by the mapping backends).
    pub fn outputs(&self) -> &'a [u32] {
        self.outputs
    }

    /// The weight index shared by every map in the group.
    pub fn weight(&self) -> u16 {
        self.weight
    }

    /// Number of maps in the group.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the group has no maps.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The `i`-th map of the group as a [`MapEntry`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn entry(&self, i: usize) -> MapEntry {
        MapEntry::new(self.inputs[i], self.outputs[i], self.weight)
    }

    /// Iterates the group's maps as [`MapEntry`] values.
    pub fn iter(&self) -> impl Iterator<Item = MapEntry> + 'a {
        let weight = self.weight;
        self.inputs
            .iter()
            .zip(self.outputs)
            .map(move |(&input, &output)| MapEntry::new(input, output, weight))
    }
}

/// Why a structure-of-arrays triple cannot form a valid [`MapTable`]
/// (returned by [`MapTable::try_from_soa`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapTableError {
    /// The input and output index arrays differ in length.
    UnparallelArrays {
        /// Length of the input-index array.
        inputs: usize,
        /// Length of the output-index array.
        outputs: usize,
    },
    /// The offsets array is empty (it must hold `n_weights + 1 >= 1`
    /// entries).
    EmptyOffsets,
    /// The first offset is not 0.
    OffsetsStartNonzero(usize),
    /// The offsets are not monotonically non-decreasing.
    OffsetsNotMonotone,
    /// The final offset does not equal the index-array length.
    OffsetsDoNotCover {
        /// The final offset.
        last: usize,
        /// The index-array length it should equal.
        len: usize,
    },
}

impl std::fmt::Display for MapTableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MapTableError::UnparallelArrays { inputs, outputs } => {
                write!(f, "SoA arrays must be parallel ({inputs} inputs vs {outputs} outputs)")
            }
            MapTableError::EmptyOffsets => {
                write!(f, "offsets must hold at least n_weights + 1 = 1 entry")
            }
            MapTableError::OffsetsStartNonzero(first) => {
                write!(f, "offsets must start at 0 (got {first})")
            }
            MapTableError::OffsetsNotMonotone => write!(f, "offsets must be monotone"),
            MapTableError::OffsetsDoNotCover { last, len } => {
                write!(f, "offsets must cover arrays (last offset {last}, {len} maps)")
            }
        }
    }
}

impl std::error::Error for MapTableError {}

/// The CSR invariants shared by [`MapTable::try_from_soa`] (construction
/// from untrusted parts) and [`MapTable::validate`] (re-validation of an
/// existing table).
fn validate_soa(inputs: &[u32], outputs: &[u32], offsets: &[usize]) -> Result<(), MapTableError> {
    if inputs.len() != outputs.len() {
        return Err(MapTableError::UnparallelArrays {
            inputs: inputs.len(),
            outputs: outputs.len(),
        });
    }
    if offsets.is_empty() {
        return Err(MapTableError::EmptyOffsets);
    }
    if offsets[0] != 0 {
        return Err(MapTableError::OffsetsStartNonzero(offsets[0]));
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(MapTableError::OffsetsNotMonotone);
    }
    let last = *offsets.last().expect("non-empty");
    if last != inputs.len() {
        return Err(MapTableError::OffsetsDoNotCover { last, len: inputs.len() });
    }
    Ok(())
}

/// A complete set of maps for one convolution layer, stored grouped by
/// weight index (the *gather by weight* order of the CPU/GPU flow and of
/// the weight-stationary inner loop of the accelerator) in SoA form.
///
/// # Examples
///
/// ```
/// use pointacc_geom::{MapEntry, MapTable};
/// let t = MapTable::from_entries(
///     vec![MapEntry::new(0, 0, 1), MapEntry::new(1, 0, 0)],
///     2,
/// );
/// assert_eq!(t.group(0).inputs(), &[1]);
/// assert_eq!(t.group(1).entry(0), MapEntry::new(0, 0, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MapTable {
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    /// CSR-style offsets: group `w` is index range `offsets[w]..offsets[w+1]`.
    offsets: Vec<usize>,
}

impl MapTable {
    /// Builds a table from unordered entries, grouping by weight index and
    /// keeping the original relative order within a group (stable counting
    /// sort, so the map order inside a weight group is the order the
    /// mapping operation emitted — which for the merge-sort based unit is
    /// output coordinate order).
    ///
    /// # Panics
    ///
    /// Panics if any entry's `weight >= n_weights`.
    pub fn from_entries(entries: Vec<MapEntry>, n_weights: usize) -> Self {
        assert!(
            entries.iter().all(|e| (e.weight as usize) < n_weights),
            "weight index out of range"
        );
        let mut offsets = vec![0usize; n_weights + 1];
        for e in &entries {
            offsets[e.weight as usize + 1] += 1;
        }
        for w in 0..n_weights {
            offsets[w + 1] += offsets[w];
        }
        let mut cursor = offsets.clone();
        let mut inputs = vec![0u32; entries.len()];
        let mut outputs = vec![0u32; entries.len()];
        for e in &entries {
            let at = cursor[e.weight as usize];
            inputs[at] = e.input;
            outputs[at] = e.output;
            cursor[e.weight as usize] += 1;
        }
        MapTable { inputs, outputs, offsets }
    }

    /// Builds a table directly from SoA storage already grouped by weight:
    /// `inputs`/`outputs` are parallel arrays and `offsets` the CSR group
    /// boundaries (`offsets.len() == n_weights + 1`). This is the
    /// allocation-free path the fused kernel-map builder uses.
    ///
    /// # Panics
    ///
    /// Panics if the arrays disagree in length or `offsets` is not a
    /// monotone prefix-sum ending at the array length.
    pub fn from_soa(inputs: Vec<u32>, outputs: Vec<u32>, offsets: Vec<usize>) -> Self {
        // lint: allow(panic): documented panicking facade over try_from_soa.
        Self::try_from_soa(inputs, outputs, offsets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MapTable::from_soa`] with the validation failures surfaced as a
    /// typed [`MapTableError`] instead of a panic — the entry point
    /// deserializers (the trace-artifact codec) use so a corrupt byte
    /// stream is rejected instead of aborting the process.
    pub fn try_from_soa(
        inputs: Vec<u32>,
        outputs: Vec<u32>,
        offsets: Vec<usize>,
    ) -> Result<Self, MapTableError> {
        validate_soa(&inputs, &outputs, &offsets)?;
        Ok(MapTable { inputs, outputs, offsets })
    }

    /// Re-checks the CSR invariants on an existing table, returning the
    /// same typed [`MapTableError`]s as [`MapTable::try_from_soa`].
    ///
    /// Tables built through the constructors uphold these invariants by
    /// construction; this is the re-validation entry point for tables
    /// that crossed a trust boundary (deserialized trace artifacts, the
    /// static trace verifier).
    pub fn validate(&self) -> Result<(), MapTableError> {
        validate_soa(&self.inputs, &self.outputs, &self.offsets)
    }

    /// The CSR group boundaries: group `w` spans
    /// `offsets()[w]..offsets()[w+1]` of [`MapTable::inputs`] /
    /// [`MapTable::outputs`]. Always `n_weights() + 1` monotone entries
    /// starting at 0 and ending at [`MapTable::len`] — together with the
    /// index arrays this is the complete wire representation of the
    /// table ([`MapTable::try_from_soa`] is the inverse).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of weight groups.
    pub fn n_weights(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of maps.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether there are no maps.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The maps associated with weight `w`, as SoA index slices.
    ///
    /// # Panics
    ///
    /// Panics if `w >= n_weights`.
    pub fn group(&self, w: usize) -> MapGroup<'_> {
        let range = self.offsets[w]..self.offsets[w + 1];
        MapGroup {
            inputs: &self.inputs[range.clone()],
            outputs: &self.outputs[range],
            weight: w as u16,
        }
    }

    /// Every map's input point index, grouped by weight.
    pub fn inputs(&self) -> &[u32] {
        &self.inputs
    }

    /// Every map's output point index, grouped by weight.
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Iterates all maps in (weight, emission) order as [`MapEntry`]s.
    pub fn iter(&self) -> impl Iterator<Item = MapEntry> + '_ {
        (0..self.n_weights()).flat_map(move |w| self.group(w).iter())
    }

    /// Materializes all maps in (weight, emission) order (allocates; hot
    /// paths should iterate [`MapTable::group`] slices instead).
    pub fn to_entries(&self) -> Vec<MapEntry> {
        self.iter().collect()
    }

    /// Map counts per weight group.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.n_weights()).map(|w| self.group(w).len()).collect()
    }

    /// Builds the transposed table (inputs and outputs swapped, weight
    /// index mirrored through `n_weights-1-w`), which is exactly the map
    /// set of the corresponding transposed convolution used on the decoder
    /// path of U-shaped SparseConv networks.
    #[must_use]
    pub fn transpose(&self) -> MapTable {
        let n_w = self.n_weights();
        let entries = self
            .iter()
            .map(|e| MapEntry::new(e.output, e.input, (n_w - 1 - e.weight as usize) as u16))
            .collect();
        MapTable::from_entries(entries, n_w)
    }

    /// Returns entries sorted in canonical `(weight, output, input)` order;
    /// used by tests to compare tables produced by different algorithms.
    pub fn canonicalized(&self) -> Vec<MapEntry> {
        let mut v = self.to_entries();
        v.sort_by_key(|e| (e.weight, e.output, e.input));
        v
    }
}

/// Why a `(table, geometry)` pair cannot form a valid [`KernelMap`]
/// (returned by [`KernelMap::try_new`]), naming the offending weight
/// group and entry so diagnostics point at the exact map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelMapError {
    /// The table itself violates the CSR invariants.
    Table(MapTableError),
    /// The table's weight-group count is not the declared kernel volume.
    VolumeMismatch {
        /// Declared kernel volume (`kernel_size³`).
        kernel_volume: usize,
        /// Weight groups the table actually holds.
        n_weights: usize,
    },
    /// A map's input index is outside the declared input cloud.
    InputOutOfBounds {
        /// Weight group holding the offending map.
        group: usize,
        /// Entry position within the group.
        entry: usize,
        /// The out-of-range input index.
        index: u32,
        /// Declared input cloud size the index must stay below.
        n_in: usize,
    },
    /// A map's output index is outside the declared output cloud.
    OutputOutOfBounds {
        /// Weight group holding the offending map.
        group: usize,
        /// Entry position within the group.
        entry: usize,
        /// The out-of-range output index.
        index: u32,
        /// Declared output cloud size the index must stay below.
        n_out: usize,
    },
}

impl std::fmt::Display for KernelMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            KernelMapError::Table(ref e) => write!(f, "malformed map table: {e}"),
            KernelMapError::VolumeMismatch { kernel_volume, n_weights } => {
                write!(f, "kernel volume {kernel_volume} != {n_weights} weight groups")
            }
            KernelMapError::InputOutOfBounds { group, entry, index, n_in } => write!(
                f,
                "map (group {group}, entry {entry}) input {index} outside input cloud of {n_in}"
            ),
            KernelMapError::OutputOutOfBounds { group, entry, index, n_out } => write!(
                f,
                "map (group {group}, entry {entry}) output {index} outside output cloud of {n_out}"
            ),
        }
    }
}

impl std::error::Error for KernelMapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelMapError::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapTableError> for KernelMapError {
    fn from(e: MapTableError) -> Self {
        KernelMapError::Table(e)
    }
}

/// The complete kernel map of one sparse convolution layer: the
/// [`MapTable`] plus the geometry it connects, so consumers can bounds-
/// check gathers and scatters without re-deriving cloud sizes.
///
/// Constructors cover the three shapes a MinkowskiNet-style U-Net needs:
/// [`KernelMap::unit_stride`] (encoder/decoder body convs),
/// [`KernelMap::downsample`] (stride-`s` encoder stages, which also
/// produce the coarser output cloud), and [`KernelMap::transposed`]
/// (decoder upsampling: the forward fine→coarse map transposed).
///
/// # Examples
///
/// ```
/// use pointacc_geom::{Coord, KernelMap, VoxelCloud};
/// let cloud = VoxelCloud::from_unsorted(
///     vec![Coord::new(0, 0, 0), Coord::new(1, 0, 0), Coord::new(3, 1, 0)],
///     1,
/// );
/// let km = KernelMap::unit_stride(&cloud, 3);
/// assert_eq!(km.kernel_volume(), 27);
/// assert_eq!((km.n_in(), km.n_out()), (3, 3));
/// // Every voxel maps onto itself through the center offset.
/// assert!(km.table().len() >= cloud.len());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelMap {
    table: MapTable,
    n_in: usize,
    n_out: usize,
    kernel_volume: usize,
}

impl KernelMap {
    fn new(table: MapTable, n_in: usize, n_out: usize, kernel_volume: usize) -> Self {
        // The mapping backends construct in-bounds tables by design;
        // debug builds re-prove it through the typed checker so a backend
        // regression names the offending group/entry instead of failing
        // later inside a gather.
        debug_assert!(
            Self::check(&table, n_in, n_out, kernel_volume).is_ok(),
            "kernel map references out-of-range points: {:?}",
            Self::check(&table, n_in, n_out, kernel_volume)
        );
        KernelMap { table, n_in, n_out, kernel_volume }
    }

    /// Builds a kernel map from parts that did **not** come from a
    /// trusted mapping backend, verifying the table's CSR invariants,
    /// the group-count/kernel-volume agreement and every index bound —
    /// the typed-error counterpart of the backend constructors.
    pub fn try_new(
        table: MapTable,
        n_in: usize,
        n_out: usize,
        kernel_volume: usize,
    ) -> Result<Self, KernelMapError> {
        Self::check(&table, n_in, n_out, kernel_volume)?;
        Ok(KernelMap { table, n_in, n_out, kernel_volume })
    }

    /// The invariant body of [`KernelMap::try_new`], naming the first
    /// offending group/entry on failure.
    fn check(
        table: &MapTable,
        n_in: usize,
        n_out: usize,
        kernel_volume: usize,
    ) -> Result<(), KernelMapError> {
        table.validate()?;
        if table.n_weights() != kernel_volume {
            return Err(KernelMapError::VolumeMismatch {
                kernel_volume,
                n_weights: table.n_weights(),
            });
        }
        for group in 0..table.n_weights() {
            let g = table.group(group);
            for (entry, (&input, &output)) in g.inputs().iter().zip(g.outputs()).enumerate() {
                if input as usize >= n_in {
                    return Err(KernelMapError::InputOutOfBounds {
                        group,
                        entry,
                        index: input,
                        n_in,
                    });
                }
                if output as usize >= n_out {
                    return Err(KernelMapError::OutputOutOfBounds {
                        group,
                        entry,
                        index: output,
                        n_out,
                    });
                }
            }
        }
        Ok(())
    }

    /// Maps of a stride-1 convolution: input and output share `cloud`'s
    /// coordinates, so every voxel maps onto itself through the center
    /// offset (odd kernels) plus one map per occupied neighbor offset.
    ///
    /// Built through the process-wide
    /// [`default_backend`](crate::index::default_backend); use
    /// [`KernelMap::unit_stride_with`] to pin a backend explicitly.
    pub fn unit_stride(cloud: &VoxelCloud, kernel_size: usize) -> Self {
        Self::unit_stride_with(default_backend(), cloud, kernel_size)
    }

    /// [`KernelMap::unit_stride`] through an explicit mapping backend.
    pub fn unit_stride_with(
        backend: &dyn MappingBackend,
        cloud: &VoxelCloud,
        kernel_size: usize,
    ) -> Self {
        let table = backend.kernel_map(cloud, cloud, kernel_size);
        KernelMap::new(table, cloud.len(), cloud.len(), kernel_size.pow(3))
    }

    /// Maps of a stride-`stride` downsampling convolution: quantizes
    /// `cloud` to the coarser lattice, then maps every input voxel into
    /// the output cell it falls in. Returns the coarse cloud alongside
    /// the maps (the executor threads it to the next layer).
    ///
    /// Built through the process-wide
    /// [`default_backend`](crate::index::default_backend); use
    /// [`KernelMap::downsample_with`] to pin a backend explicitly.
    pub fn downsample(cloud: &VoxelCloud, kernel_size: usize, stride: i32) -> (VoxelCloud, Self) {
        Self::downsample_with(default_backend(), cloud, kernel_size, stride)
    }

    /// [`KernelMap::downsample`] through an explicit mapping backend.
    pub fn downsample_with(
        backend: &dyn MappingBackend,
        cloud: &VoxelCloud,
        kernel_size: usize,
        stride: i32,
    ) -> (VoxelCloud, Self) {
        let (coarse, _) = cloud.downsample(stride);
        let table = backend.kernel_map(cloud, &coarse, kernel_size);
        let km = KernelMap::new(table, cloud.len(), coarse.len(), kernel_size.pow(3));
        (coarse, km)
    }

    /// Maps of the transposed (upsampling) convolution from `coarse`
    /// back onto `fine`: exactly the forward `fine → coarse` map with
    /// inputs/outputs swapped and the weight index mirrored — the
    /// decoder counterpart of [`KernelMap::downsample`].
    ///
    /// Built through the process-wide
    /// [`default_backend`](crate::index::default_backend); use
    /// [`KernelMap::transposed_with`] to pin a backend explicitly.
    pub fn transposed(fine: &VoxelCloud, coarse: &VoxelCloud, kernel_size: usize) -> Self {
        Self::transposed_with(default_backend(), fine, coarse, kernel_size)
    }

    /// [`KernelMap::transposed`] through an explicit mapping backend.
    pub fn transposed_with(
        backend: &dyn MappingBackend,
        fine: &VoxelCloud,
        coarse: &VoxelCloud,
        kernel_size: usize,
    ) -> Self {
        let table = backend.kernel_map(fine, coarse, kernel_size).transpose();
        KernelMap::new(table, coarse.len(), fine.len(), kernel_size.pow(3))
    }

    /// The underlying map table, grouped by weight index.
    pub fn table(&self) -> &MapTable {
        &self.table
    }

    /// Consumes the kernel map, yielding the table (for traces that own
    /// their maps).
    pub fn into_table(self) -> MapTable {
        self.table
    }

    /// Input cloud size every `input` index is bounded by.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output cloud size every `output` index is bounded by.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of weight matrices (`kernel_size³`).
    pub fn kernel_volume(&self) -> usize {
        self.kernel_volume
    }

    /// Whether every map entry stays inside the declared cloud sizes and
    /// kernel volume — the invariant the gather–GEMM–scatter executor
    /// relies on to index feature rows without bounds failures.
    pub fn is_within_bounds(&self) -> bool {
        self.table.n_weights() == self.kernel_volume
            && self.table.inputs().iter().all(|&i| (i as usize) < self.n_in)
            && self.table.outputs().iter().all(|&o| (o as usize) < self.n_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MapTable {
        MapTable::from_entries(
            vec![
                MapEntry::new(0, 1, 2),
                MapEntry::new(1, 0, 0),
                MapEntry::new(2, 2, 2),
                MapEntry::new(3, 3, 1),
            ],
            3,
        )
    }

    #[test]
    fn groups_partition_entries() {
        let t = table();
        assert_eq!(t.len(), 4);
        assert_eq!(t.group(0).len(), 1);
        assert_eq!(t.group(1).len(), 1);
        assert_eq!(t.group(2).len(), 2);
        assert_eq!(t.counts(), vec![1, 1, 2]);
    }

    #[test]
    fn grouping_is_stable_within_weight() {
        let t = MapTable::from_entries(
            vec![MapEntry::new(5, 0, 1), MapEntry::new(3, 0, 1), MapEntry::new(4, 0, 0)],
            2,
        );
        assert_eq!(t.group(1).inputs(), &[5, 3]);
        assert_eq!(t.group(1).entry(0).input, 5);
        assert_eq!(t.group(1).entry(1).input, 3);
    }

    #[test]
    fn soa_roundtrips_through_entries() {
        let t = table();
        let rebuilt = MapTable::from_entries(t.to_entries(), t.n_weights());
        assert_eq!(t, rebuilt);
        assert_eq!(t.inputs().len(), t.len());
        assert_eq!(t.outputs().len(), t.len());
        assert_eq!(t.iter().count(), t.len());
    }

    #[test]
    fn from_soa_matches_from_entries() {
        let t = table();
        let soa = MapTable::from_soa(
            t.inputs().to_vec(),
            t.outputs().to_vec(),
            (0..=t.n_weights()).map(|w| t.counts()[..w].iter().sum()).collect(),
        );
        assert_eq!(t, soa);
    }

    #[test]
    #[should_panic(expected = "offsets must cover arrays")]
    fn from_soa_rejects_short_offsets() {
        let _ = MapTable::from_soa(vec![1, 2], vec![0, 0], vec![0, 1]);
    }

    #[test]
    fn try_from_soa_returns_typed_errors() {
        assert_eq!(
            MapTable::try_from_soa(vec![1], vec![0, 0], vec![0, 1]),
            Err(MapTableError::UnparallelArrays { inputs: 1, outputs: 2 })
        );
        assert_eq!(
            MapTable::try_from_soa(vec![], vec![], vec![]),
            Err(MapTableError::EmptyOffsets)
        );
        assert_eq!(
            MapTable::try_from_soa(vec![1], vec![0], vec![1, 1]),
            Err(MapTableError::OffsetsStartNonzero(1))
        );
        assert_eq!(
            MapTable::try_from_soa(vec![1, 2], vec![0, 0], vec![0, 2, 1, 2]),
            Err(MapTableError::OffsetsNotMonotone)
        );
        assert_eq!(
            MapTable::try_from_soa(vec![1, 2], vec![0, 0], vec![0, 1]),
            Err(MapTableError::OffsetsDoNotCover { last: 1, len: 2 })
        );
        let ok = MapTable::try_from_soa(vec![1, 2], vec![0, 0], vec![0, 1, 2]).unwrap();
        assert_eq!(ok.offsets(), &[0, 1, 2]);
        assert_eq!(ok.n_weights(), 2);
    }

    #[test]
    fn transpose_swaps_and_mirrors() {
        let t = table();
        let tt = t.transpose();
        assert_eq!(tt.len(), t.len());
        // (0 -> 1, w2) becomes (1 -> 0, w0) with 3 weights.
        assert!(tt.group(0).iter().any(|e| e == MapEntry::new(1, 0, 0)));
        // Transposing twice is the identity.
        assert_eq!(tt.transpose().canonicalized(), t.canonicalized());
    }

    #[test]
    #[should_panic(expected = "weight index out of range")]
    fn weight_out_of_range_rejected() {
        let _ = MapTable::from_entries(vec![MapEntry::new(0, 0, 5)], 2);
    }

    mod kernel_map {
        use super::*;
        use crate::Coord;

        fn cloud() -> VoxelCloud {
            let cs = [(1, 1, 0), (2, 2, 0), (2, 4, 0), (3, 2, 0), (4, 3, 0)];
            VoxelCloud::from_unsorted(cs.iter().map(|&c| Coord::from(c)).collect(), 1)
        }

        #[test]
        fn unit_stride_is_self_map_at_center() {
            let c = cloud();
            let km = KernelMap::unit_stride(&c, 3);
            assert_eq!((km.n_in(), km.n_out(), km.kernel_volume()), (5, 5, 27));
            assert!(km.is_within_bounds());
            // Center offset of a 3³ kernel maps every voxel to itself.
            let center = km.table().group(13);
            assert_eq!(center.len(), c.len());
            assert_eq!(center.inputs(), center.outputs());
        }

        #[test]
        fn downsample_covers_every_input_once() {
            let c = cloud();
            let (coarse, km) = KernelMap::downsample(&c, 2, 2);
            assert_eq!(km.n_in(), c.len());
            assert_eq!(km.n_out(), coarse.len());
            assert!(km.is_within_bounds());
            // A kernel-2/stride-2 conv touches every input exactly once.
            assert_eq!(km.table().len(), c.len());
            let mut inputs: Vec<u32> = km.table().inputs().to_vec();
            inputs.sort_unstable();
            inputs.dedup();
            assert_eq!(inputs.len(), c.len());
        }

        #[test]
        fn transposed_is_forward_map_flipped() {
            let c = cloud();
            let (coarse, fwd) = KernelMap::downsample(&c, 2, 2);
            let tr = KernelMap::transposed(&c, &coarse, 2);
            assert_eq!((tr.n_in(), tr.n_out()), (fwd.n_out(), fwd.n_in()));
            assert!(tr.is_within_bounds());
            assert_eq!(tr.table().transpose().canonicalized(), fwd.table().canonicalized());
        }

        #[test]
        fn bounds_check_catches_truncated_clouds() {
            let c = cloud();
            let km = KernelMap::unit_stride(&c, 3);
            let truncated =
                KernelMap { table: km.table().clone(), n_in: 1, n_out: 1, kernel_volume: 27 };
            assert!(!truncated.is_within_bounds());
        }

        #[test]
        fn try_new_accepts_backend_output_and_names_violations() {
            let c = cloud();
            let km = KernelMap::unit_stride(&c, 3);
            let ok = KernelMap::try_new(km.table().clone(), km.n_in(), km.n_out(), 27)
                .expect("backend tables are in bounds");
            assert_eq!(ok, km);
            // Wrong kernel volume.
            assert_eq!(
                KernelMap::try_new(km.table().clone(), km.n_in(), km.n_out(), 8),
                Err(KernelMapError::VolumeMismatch { kernel_volume: 8, n_weights: 27 })
            );
            // Truncated input cloud: the error names the first bad map.
            let err = KernelMap::try_new(km.table().clone(), 1, km.n_out(), 27).unwrap_err();
            assert!(
                matches!(err, KernelMapError::InputOutOfBounds { n_in: 1, index, .. } if index >= 1),
                "{err:?}"
            );
            // Truncated output cloud.
            let err = KernelMap::try_new(km.table().clone(), km.n_in(), 1, 27).unwrap_err();
            assert!(matches!(err, KernelMapError::OutputOutOfBounds { n_out: 1, .. }), "{err:?}");
        }

        #[test]
        fn try_new_rejects_malformed_tables() {
            let t = MapTable::from_entries(vec![MapEntry::new(0, 0, 0)], 1);
            let err = KernelMap::try_new(t, 0, 1, 1).unwrap_err();
            assert!(matches!(err, KernelMapError::InputOutOfBounds { .. }), "{err:?}");
        }
    }

    #[test]
    fn validate_accepts_constructed_tables() {
        assert_eq!(table().validate(), Ok(()));
        assert_eq!(MapTable::default().validate(), Err(MapTableError::EmptyOffsets));
    }
}
