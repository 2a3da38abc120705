//! Property test: CRC32C detects every single-byte corruption.

use dpc_codec::crc32c;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn crc_detects_any_single_byte_change(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        pos_seed in any::<usize>(),
        delta in 1u8..=255,
    ) {
        let pos = pos_seed % data.len();
        let before = crc32c(&data);
        let mut corrupted = data.clone();
        corrupted[pos] ^= delta;
        prop_assert_ne!(before, crc32c(&corrupted));
    }
}
