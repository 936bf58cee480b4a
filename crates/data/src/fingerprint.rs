//! Content fingerprints: the 64-bit FNV-1a hash behind the engine's
//! artifact-cache keys.  A `DataMatrix` hashes itself once per instance
//! and keeps the result (`DataMatrix::fingerprint`).

/// A 64-bit content fingerprint (FNV-1a over the value's raw bytes).
pub type Fingerprint = u64;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a hasher over `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintBuilder {
    state: u64,
}

impl FingerprintBuilder {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Mixes one 64-bit word into the fingerprint.
    #[inline]
    pub fn write_u64(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.state ^= byte as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes an `f64` by bit pattern (so `-0.0` and `0.0` differ — fine for
    /// cache identity, which only needs "same bytes ⇒ same key").
    #[inline]
    pub fn write_f64(&mut self, value: f64) -> &mut Self {
        self.write_u64(value.to_bits())
    }

    /// The finished fingerprint.
    pub fn finish(&self) -> Fingerprint {
        self.state
    }
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}
