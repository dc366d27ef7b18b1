/**
 * @file
 * Corruption robustness for the JPEG decoder: truncated prefixes and
 * random bit-flips of valid streams must come back as clean decode
 * failures (or valid images), never crashes, hangs, or out-of-bounds
 * accesses. Run under ASan/UBSan via tools/check.sh to make the
 * memory-safety claim machine-checked.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "prep/jpeg/jpeg_decoder.hh"
#include "prep/pipeline.hh"

namespace tb {
namespace jpeg {
namespace {

/** Decode must return a verdict; failures must carry a message. */
void
expectGraceful(const std::vector<std::uint8_t> &bytes)
{
    const DecodeResult res = decodeJpeg(bytes);
    if (!res.ok) {
        EXPECT_FALSE(res.error.empty());
    }
}

TEST(JpegCorrupt, EveryTruncatedPrefixFailsCleanly)
{
    Rng rng(21);
    const auto bytes = prep::makeSyntheticJpeg(48, 48, rng);
    ASSERT_GT(bytes.size(), 16u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        const DecodeResult res = decodeJpeg(prefix);
        // A strict prefix is missing at least the EOI scan tail; it may
        // decode only if the full scan happens to fit, and must
        // otherwise fail with a message.
        if (!res.ok) {
            EXPECT_FALSE(res.error.empty()) << "prefix length " << len;
        }
    }
}

TEST(JpegCorrupt, SingleBitFlipsNeverCrash)
{
    Rng rng(22);
    const auto base = prep::makeSyntheticJpeg(32, 32, rng);
    // Flip each of 2000 randomly chosen bits, one at a time.
    Rng flip_rng(23);
    for (int i = 0; i < 2000; ++i) {
        auto bytes = base;
        const std::size_t byte = static_cast<std::size_t>(
            flip_rng.uniformInt(
                0, static_cast<std::int64_t>(bytes.size()) - 1));
        const int bit = static_cast<int>(flip_rng.uniformInt(0, 7));
        bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expectGraceful(bytes);
    }
}

TEST(JpegCorrupt, MultiBitFlipsNeverCrash)
{
    Rng rng(24);
    const auto base = prep::makeSyntheticJpeg(64, 64, rng);
    Rng flip_rng(25);
    for (int trial = 0; trial < 200; ++trial) {
        auto bytes = base;
        const int flips = static_cast<int>(flip_rng.uniformInt(1, 32));
        for (int i = 0; i < flips; ++i) {
            const std::size_t byte = static_cast<std::size_t>(
                flip_rng.uniformInt(
                    0, static_cast<std::int64_t>(bytes.size()) - 1));
            bytes[byte] ^= static_cast<std::uint8_t>(
                1u << flip_rng.uniformInt(0, 7));
        }
        expectGraceful(bytes);
    }
}

TEST(JpegCorrupt, RandomGarbageNeverCrashes)
{
    Rng rng(26);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(rng.uniformInt(0, 511)));
        for (auto &b : bytes)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        // Half the trials get a valid SOI so the marker loop engages.
        if (trial % 2 == 0 && bytes.size() >= 2) {
            bytes[0] = 0xFF;
            bytes[1] = 0xD8;
        }
        expectGraceful(bytes);
    }
}

TEST(JpegCorrupt, UndersizedSegmentLengthRejected)
{
    // SOI + DQT whose length field (1) is smaller than the field
    // itself — previously this rewound the cursor.
    const std::vector<std::uint8_t> bytes = {0xFF, 0xD8, 0xFF, 0xDB,
                                             0x00, 0x01, 0xFF, 0xD9};
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(JpegCorrupt, TruncatedDriRejected)
{
    // SOI + DRI claiming 2 payload bytes that the file does not have.
    const std::vector<std::uint8_t> bytes = {0xFF, 0xD8, 0xFF, 0xDD,
                                             0x00, 0x04};
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(JpegCorrupt, HugeFrameDimensionsRejected)
{
    // SOI + SOF0 declaring a 65535 x 65535 frame: must be rejected
    // before any plane allocation, not after ~50 GB of requests.
    const std::vector<std::uint8_t> bytes = {
        0xFF, 0xD8,             // SOI
        0xFF, 0xC0, 0x00, 0x0B, // SOF0, len 11
        0x08,                   // precision
        0xFF, 0xFF,             // height 65535
        0xFF, 0xFF,             // width 65535
        0x01,                   // 1 component
        0x01, 0x11, 0x00,       // id 1, 1x1, quant 0
        0xFF, 0xD9,             // EOI
    };
    const DecodeResult res = decodeJpeg(bytes);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.error.empty());
}

TEST(JpegCorrupt, SubsampledLumaDoesNotReadOutOfBounds)
{
    // Y at 1x1 with chroma at 2x2 is syntactically legal; the
    // assembler must index the (quarter-size) Y plane through its
    // sampling factors. Build the header by hand and borrow the scan
    // bytes from a real encode so Huffman decode has data to chew on.
    Rng rng(27);
    const auto donor = prep::makeSyntheticJpeg(16, 16, rng);
    std::vector<std::uint8_t> bytes(donor.begin(), donor.end());
    // Patch the SOF0 sampling factors: find the SOF0 marker.
    for (std::size_t i = 0; i + 9 < bytes.size(); ++i) {
        if (bytes[i] == 0xFF && bytes[i + 1] == 0xC0) {
            // comps start at i+11: id, hv, tq triplets
            bytes[i + 11 + 1] = 0x11; // Y: 1x1
            bytes[i + 11 + 4] = 0x22; // Cb: 2x2
            bytes[i + 11 + 7] = 0x22; // Cr: 2x2
            break;
        }
    }
    expectGraceful(bytes); // must not crash under ASan
}

} // namespace
} // namespace jpeg
} // namespace tb
