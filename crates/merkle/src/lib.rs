//! # batchzk-merkle
//!
//! CPU reference Merkle tree over SHA-256 (§2.2 of the paper) — the
//! "Orion (CPU)" column of Table 3 and the correctness oracle for the
//! pipelined GPU module in `batchzk-pipeline`.
//!
//! Input data is split into 512-bit (64-byte) blocks; each block is hashed
//! into a 256-bit leaf; parent nodes hash the concatenation of their two
//! children. Trees are padded to a power of two by repeating the last leaf
//! digest, so any non-empty input works.
//!
//! # Examples
//!
//! ```
//! use batchzk_merkle::MerkleTree;
//!
//! let blocks: Vec<[u8; 64]> = (0..8u8).map(|i| [i; 64]).collect();
//! let tree = MerkleTree::from_blocks(&blocks);
//! let path = tree.open(3);
//! assert!(path.verify(&tree.root()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use batchzk_field::Field;
use batchzk_hash::{hash_blocks, hash_pair, Digest};

/// A fully materialized Merkle tree (all layers kept, leaf layer first).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `layers[0]` = leaf digests, last layer = `[root]`.
    layers: Vec<Vec<Digest>>,
    /// Number of real (unpadded) leaves.
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree from 64-byte data blocks (one leaf per block).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn from_blocks(blocks: &[[u8; 64]]) -> Self {
        assert!(!blocks.is_empty(), "cannot build a Merkle tree of nothing");
        Self::from_leaves(hash_blocks(blocks))
    }

    /// Builds a tree whose leaves are the hashes of 64-byte chunks of `data`
    /// (zero-padded at the tail), mirroring the paper's "divide input data
    /// into multiple blocks" step.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn from_bytes(data: &[u8]) -> Self {
        assert!(!data.is_empty(), "cannot build a Merkle tree of nothing");
        let blocks: Vec<[u8; 64]> = data
            .chunks(64)
            .map(|c| {
                let mut b = [0u8; 64];
                b[..c.len()].copy_from_slice(c);
                b
            })
            .collect();
        Self::from_blocks(&blocks)
    }

    /// Builds a tree over field elements, two 32-byte encodings per 64-byte
    /// block (an odd last element leaves its block's second half zero).
    ///
    /// # Panics
    ///
    /// Panics if `elems` is empty.
    pub fn from_field_elems<F: Field>(elems: &[F]) -> Self {
        let mut bytes = vec![0; elems.len().next_multiple_of(2) * 32];
        F::write_canonical(elems, &mut bytes[..elems.len() * 32]);
        Self::from_blocks(bytes.as_chunks().0)
    }

    /// Builds a tree from precomputed leaf digests.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn from_leaves(mut leaves: Vec<Digest>) -> Self {
        assert!(!leaves.is_empty(), "cannot build a Merkle tree of nothing");
        let leaf_count = leaves.len();
        // Pad to a power of two by repeating the final digest.
        let padded = leaf_count.next_power_of_two();
        leaves.resize(padded, *leaves.last().expect("non-empty"));

        let mut layers = vec![leaves];
        while layers.last().expect("non-empty").len() > 1 {
            // The level as its contiguous `left ‖ right` blocks.
            let prev = layers.last().expect("non-empty");
            layers.push(hash_blocks(prev.as_flattened().as_chunks().0));
        }
        Self { layers, leaf_count }
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.layers.last().expect("non-empty")[0]
    }

    /// Number of real (unpadded) leaves.
    #[cfg(test)]
    fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Number of layers including the leaf layer and the root.
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Leaf digest at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn leaf(&self, index: usize) -> Digest {
        assert!(index < self.leaf_count, "leaf index out of range");
        self.layers[0][index]
    }

    /// Opens an authentication path for the leaf at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn open(&self, index: usize) -> MerklePath {
        assert!(index < self.leaf_count, "leaf index out of range");
        let mut siblings = Vec::with_capacity(self.layers.len() - 1);
        let mut i = index;
        for layer in &self.layers[..self.layers.len() - 1] {
            siblings.push(layer[i ^ 1]);
            i >>= 1;
        }
        MerklePath {
            leaf: self.layers[0][index],
            index,
            siblings,
        }
    }

    /// Number of internal-node hashes spent building the padded tree
    /// (`N - 1` pair hashes for `N` padded leaves). Leaf hashes are charged
    /// separately by the construction path. Used by the GPU cost models.
    pub fn node_hash_count(&self) -> u64 {
        self.layers[1..].iter().map(|l| l.len() as u64).sum()
    }
}

/// An authentication path proving membership of one leaf digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerklePath {
    leaf: Digest,
    index: usize,
    siblings: Vec<Digest>,
}

impl MerklePath {
    /// The leaf digest this path authenticates.
    pub fn leaf(&self) -> Digest {
        self.leaf
    }

    /// The leaf position.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Recomputes the root from the leaf and siblings and compares.
    pub fn verify(&self, root: &Digest) -> bool {
        let mut acc = self.leaf;
        let mut i = self.index;
        for sib in &self.siblings {
            acc = if i & 1 == 0 {
                hash_pair(&acc, sib)
            } else {
                hash_pair(sib, &acc)
            };
            i >>= 1;
        }
        acc == *root
    }

    /// Serializes to bytes (leaf || index || sibling count || siblings).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 16 + self.siblings.len() * 32);
        out.extend_from_slice(&self.leaf);
        out.extend_from_slice(&(self.index as u64).to_le_bytes());
        out.extend_from_slice(&(self.siblings.len() as u64).to_le_bytes());
        for s in &self.siblings {
            out.extend_from_slice(s);
        }
        out
    }

    /// Parses the encoding produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 48 {
            return None;
        }
        let leaf: Digest = bytes[..32].try_into().ok()?;
        let index = u64::from_le_bytes(bytes[32..40].try_into().ok()?) as usize;
        let count = u64::from_le_bytes(bytes[40..48].try_into().ok()?) as usize;
        if bytes.len() != 48 + count * 32 || count > 64 {
            return None;
        }
        let siblings = bytes[48..]
            .chunks(32)
            .map(|c| c.try_into().expect("32-byte chunk"))
            .collect();
        Some(Self {
            leaf,
            index,
            siblings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchzk_field::Fr;

    fn blocks(n: usize) -> Vec<[u8; 64]> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 64];
                b[..8].copy_from_slice(&(i as u64).to_le_bytes());
                b
            })
            .collect()
    }

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn known_answer_roots() {
        // Roots recorded before the 4-way hash kernels were removed (the
        // leaf counts up to 13 are that kernel's quad/tail boundaries) and,
        // at 64 leaves, before the block function moved onto the CPU's SHA
        // extensions: every kernel change since has had to reproduce them.
        for (n, root) in [
            (
                1,
                "da5698be17b9b46962335799779fbeca8ce5d491c0d26243bafef9ea1837a9d8",
            ),
            (
                2,
                "0cce867ba5b34a7e43674dd7a9afc12e2d9482984932fa29b2f5df5a1eaad9b4",
            ),
            (
                3,
                "152a7e3420c312b7d067aad102ccbe63f909ec74c1c1b383e5900ab18574ff62",
            ),
            (
                4,
                "5e1e6f3fbd181b0793cd1c5b29a904e4499035b1c69b64910be73605b1ee4cf8",
            ),
            (
                5,
                "2b6353a4e2b4a3c086ef03b3b6e34b01c45279cb22b6ac447ae071e9d76d5394",
            ),
            (
                8,
                "291b2c63e5a4470363645b8b9703e0e1e76bafcfdd22a3ebd089f51e592103d3",
            ),
            (
                13,
                "06b1578e527237edfa5664fe98365b4bc9f17e061918c0895f02776ab434da90",
            ),
            (
                64,
                "f455a8e46a7fe8b82f7f9626f30e7b5c86eaa9aed1b7ab9dcde15d35e19a4c75",
            ),
        ] {
            let tree = MerkleTree::from_blocks(&blocks(n));
            assert_eq!(hex(&tree.root()), root, "n={n}");
        }
    }

    #[test]
    fn all_paths_verify() {
        for n in [1usize, 2, 3, 5, 8, 16, 31] {
            let tree = MerkleTree::from_blocks(&blocks(n));
            for i in 0..n {
                assert!(tree.open(i).verify(&tree.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn tampered_leaf_fails() {
        let tree = MerkleTree::from_blocks(&blocks(8));
        let mut path = tree.open(2);
        path.leaf[0] ^= 1;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn tampered_sibling_fails() {
        let tree = MerkleTree::from_blocks(&blocks(8));
        let mut path = tree.open(2);
        path.siblings[1][5] ^= 0x80;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn wrong_index_fails() {
        let tree = MerkleTree::from_blocks(&blocks(8));
        let mut path = tree.open(2);
        path.index = 3;
        assert!(!path.verify(&tree.root()));
    }

    #[test]
    fn wrong_root_fails() {
        let tree = MerkleTree::from_blocks(&blocks(8));
        let other = MerkleTree::from_blocks(&blocks(9));
        assert!(!tree.open(0).verify(&other.root()));
    }

    #[test]
    fn any_block_change_changes_root() {
        let base = MerkleTree::from_blocks(&blocks(16));
        for i in 0..16 {
            let mut b = blocks(16);
            b[i][63] ^= 1;
            assert_ne!(MerkleTree::from_blocks(&b).root(), base.root(), "i={i}");
        }
    }

    #[test]
    fn depth_and_counts() {
        let tree = MerkleTree::from_blocks(&blocks(16));
        assert_eq!(tree.depth(), 5); // 16 -> 8 -> 4 -> 2 -> 1
        assert_eq!(tree.leaf_count(), 16);
        assert_eq!(tree.node_hash_count(), 8 + 4 + 2 + 1);
    }

    #[test]
    fn padding_is_deterministic() {
        let a = MerkleTree::from_blocks(&blocks(5));
        let b = MerkleTree::from_blocks(&blocks(5));
        assert_eq!(a.root(), b.root());
        // And distinct from the 8-block tree even though both pad to 8.
        assert_ne!(a.root(), MerkleTree::from_blocks(&blocks(8)).root());
    }

    #[test]
    fn field_elem_trees() {
        let elems: Vec<Fr> = (0..10u64).map(Fr::from).collect();
        let tree = MerkleTree::from_field_elems(&elems);
        assert_eq!(tree.leaf_count(), 5); // two elems per block
        for i in 0..5 {
            assert!(tree.open(i).verify(&tree.root()));
        }
        // Odd count exercises the half-filled final block.
        let odd: Vec<Fr> = (0..7u64).map(Fr::from).collect();
        let t2 = MerkleTree::from_field_elems(&odd);
        assert_eq!(t2.leaf_count(), 4);
        // Blocks of two `to_bytes` encodings, at a length with whole
        // 8-element blocks and an odd tail.
        let elems: Vec<Fr> = (0..17u64).map(|i| -Fr::from(i * i + 1)).collect();
        let blocks: Vec<[u8; 64]> = elems
            .chunks(2)
            .map(|pair| {
                let mut b = [0u8; 64];
                for (half, x) in b.chunks_exact_mut(32).zip(pair) {
                    half.copy_from_slice(&x.to_bytes());
                }
                b
            })
            .collect();
        assert_eq!(
            MerkleTree::from_field_elems(&elems).root(),
            MerkleTree::from_blocks(&blocks).root()
        );
    }

    #[test]
    fn from_bytes_pads_tail() {
        let t1 = MerkleTree::from_bytes(&[1u8; 65]);
        assert_eq!(t1.leaf_count(), 2);
        let mut padded = [0u8; 128];
        padded[..65].copy_from_slice(&[1u8; 65]);
        let t2 = MerkleTree::from_bytes(&padded);
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn path_byte_roundtrip() {
        let tree = MerkleTree::from_blocks(&blocks(16));
        let path = tree.open(7);
        let decoded = MerklePath::from_bytes(&path.to_bytes()).expect("decodes");
        assert_eq!(decoded, path);
        assert!(decoded.verify(&tree.root()));
        // Truncated bytes are rejected.
        assert!(MerklePath::from_bytes(&path.to_bytes()[..40]).is_none());
        // Trailing garbage is rejected.
        let mut long = path.to_bytes();
        long.push(0);
        assert!(MerklePath::from_bytes(&long).is_none());
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::from_blocks(&blocks(1));
        assert_eq!(tree.depth(), 1);
        let path = tree.open(0);
        assert!(path.siblings.is_empty());
        assert!(path.verify(&tree.root()));
        assert_eq!(tree.root(), tree.leaf(0));
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn empty_input_panics() {
        let _ = MerkleTree::from_blocks(&[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn open_out_of_range_panics() {
        let tree = MerkleTree::from_blocks(&blocks(4));
        let _ = tree.open(4);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use batchzk_field::{RngCore, SplitMix64};

    #[test]
    fn every_path_verifies() {
        let mut rng = SplitMix64::seed_from_u64(0xC0);
        for _ in 0..16 {
            let n = rng.gen_range(1..64);
            let seed = rng.next_u64();
            let blocks: Vec<[u8; 64]> = (0..n)
                .map(|i| {
                    let mut b = [0u8; 64];
                    b[..8].copy_from_slice(&(seed ^ i as u64).to_le_bytes());
                    b
                })
                .collect();
            let tree = MerkleTree::from_blocks(&blocks);
            for i in 0..n {
                assert!(tree.open(i).verify(&tree.root()));
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_root() {
        let mut rng = SplitMix64::seed_from_u64(0xC1);
        for _ in 0..16 {
            let n = rng.gen_range(2..32);
            let idx = rng.gen_range(0..n);
            let byte = rng.gen_range(0..64);
            let bit = rng.gen_range(0..8) as u8;
            let mut blocks: Vec<[u8; 64]> = (0..n).map(|i| [i as u8; 64]).collect();
            let before = MerkleTree::from_blocks(&blocks).root();
            blocks[idx][byte] ^= 1 << bit;
            let after = MerkleTree::from_blocks(&blocks).root();
            assert_ne!(before, after);
        }
    }

    #[test]
    fn path_roundtrip() {
        let mut rng = SplitMix64::seed_from_u64(0xC2);
        for _ in 0..16 {
            let n = rng.gen_range(1..40);
            let idx = rng.gen_range(0..n);
            let blocks: Vec<[u8; 64]> = (0..n).map(|i| [i as u8; 64]).collect();
            let tree = MerkleTree::from_blocks(&blocks);
            let path = tree.open(idx);
            let decoded = MerklePath::from_bytes(&path.to_bytes()).expect("decodes");
            assert_eq!(&decoded, &path);
            assert!(decoded.verify(&tree.root()));
        }
    }
}
