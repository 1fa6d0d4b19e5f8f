/* Native kernel, file pass and KDF for sefrag, over libcrypto.
 *
 * Plain C with no Python headers; sefrag._native builds it on first use,
 * with the command in _native.COMPILE and _native.LIBS, and calls it
 * through ctypes.  Each function is the byte-for-byte equivalent of a
 * pure-Python function, which stays the reference:
 *
 *   sefrag_protect     _native.PythonKernel.protect: one chunk, gather -> keystream -> XOR
 *   sefrag_recover     _native.PythonKernel.recover: one chunk, keystream -> XOR -> scatter
 *   keystreams16       _native._keystream: the keystream digests of 16 units at once
 *   selector_blocks16  core._selectors: 16 selector blocks at once
 *   sefrag_seal_pass   core.protect_chunks: every chunk of a file, with the digest and CBC
 *   sefrag_open_pass   core.recover_chunks: the same backwards, with the digest check's inputs
 *   sefrag_derive      _native.PythonKernel.derive: the whole derive_key loop
 *
 * A chunk is a pure function of its bytes, the key and the index of its
 * first unit.  Unit u's selector is byte u % 32 of selector block u / 32,
 * SHA-256(key || "FRAG-SEL" || LE64(u / 32)), read & 7.  The chunk
 * functions hash those blocks themselves, up to 16 at a time into a
 * window that each batch of units reads its selectors from.  Both the
 * selector block's message (32 bytes) and a unit's keystream message
 * (28 bytes) fit one 64-byte SHA-256 block, so each hash is one
 * compression of a block padded in place.
 *
 * A unit is eight 4-byte words and its remainder the seven it keeps, in
 * order: remainder word k is unit word k + (k >= selector).
 *
 * Which path runs.  On an x86-64 CPU with AVX-512F and AVX-512VL, units
 * go through in batches of 16.  Their keystreams are independent
 * one-block hashes, so hash16 runs them as the 16 lanes of one SHA-256
 * (Gueron & Krasnov, "Simultaneous Hashing of Multiple Messages", 2012),
 * written once with GCC vector extensions over its message words;
 * selector blocks go through the same body, 16 blocks per call.  The rest
 * of a unit's work is one permute: protect compresses its eight words
 * under the mask ~(1 << selector) (VPCOMPRESSD) and stores the seven
 * under mask 0x7f, and recover expands them back (VPEXPANDD) over the
 * picked word.  Those need AVX-512VL, which sefrag_lanes asks the CPU for
 * (__builtin_cpu_supports, whose answer libgcc fills in before any of
 * this code runs), once per chunk call.  Elsewhere, and for a chunk's
 * last count % 16 units, each unit's keystream is one libcrypto
 * compression from the SHA-256 initial state and the unit moves its seven
 * words in a fixed loop, so no loop bound depends on the selector; so is
 * each selector block of a window of fewer than 16.  Both paths give the
 * same bytes.
 *
 * The passes run a whole file's chunks in one call, on the caller's
 * thread and, from three chunks on, at most one thread more, pinned to
 * the caller's allowed CPUs less the one it runs on; each worker reads,
 * transforms and writes the chunks it claims at their own offsets
 * (pread, pwrite), and only the content digest and the seal's CBC chain
 * take turns in chunk order.  CBC decryption needs no turn: the open
 * deciphers each chunk on its worker's own context from the cipher block
 * before it (NIST SP 800-38A, 6.2).  The AES runs through the
 * EVP_CipherUpdate and contexts the caller passes, so this file needs no
 * cipher header.
 *
 * The caller checks every buffer length before the call and passes the
 * functions' outputs unset: each writes every byte of its output.  The
 * chunk functions cannot fail: no call on their path reports an error,
 * so they return void.  sefrag_derive returns 1, or 0 when a libcrypto
 * call fails, as libcrypto's own calls do, and the caller then drops the
 * output.  The passes return 0, an errno, PASS_SHORT or PASS_CRYPTO (see
 * there), and join their thread before they return; the seal reports how
 * many workers it ran on.
 */

#define _GNU_SOURCE

#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

#include <openssl/sha.h>

#define UNIT_LEN 32
#define SUB_LEN 4
#define REMAINDER_LEN (UNIT_LEN - SUB_LEN)
#define KEY_LEN 16
#define MESSAGE_LEN (SUB_LEN + KEY_LEN + 8)
#define DOMAIN "FRAG-SEL"
#define DOMAIN_LEN 8
#define SELECTOR_MESSAGE_LEN (KEY_LEN + DOMAIN_LEN + 8)
#define SELECTORS_PER_BLOCK SHA256_DIGEST_LENGTH
#define WORDS (UNIT_LEN / SUB_LEN)
#define LANES 16

static const uint32_t INITIAL_H[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

static void le64(unsigned char *out, uint64_t value)
{
    for (int b = 0; b < 8; b++)
        out[b] = (unsigned char)(value >> (8 * b));
}

/* FIPS 180-4 padding of the len < 56 message bytes at the start of the
 * zeroed block: the 0x80 byte, then the bit length in the last bytes. */
static void pad(unsigned char block[SHA256_CBLOCK], size_t len)
{
    block[len] = 0x80;
    block[SHA256_CBLOCK - 2] = (unsigned char)((8 * len) >> 8);
    block[SHA256_CBLOCK - 1] = (unsigned char)(8 * len);
}

/* SHA-256 of a padded one-block message: one compression from the
 * initial state, written out big-endian.  SHA256_Transform reads only
 * ctx.h, so this sets the state itself instead of calling SHA256_Init. */
static void one_block(const unsigned char block[SHA256_CBLOCK], unsigned char *digest)
{
    SHA256_CTX ctx = {0};
    memcpy(ctx.h, INITIAL_H, sizeof ctx.h);
    SHA256_Transform(&ctx, block);
    for (int w = 0; w < 8; w++)
        for (int b = 0; b < 4; b++)
            digest[4 * w + b] = (unsigned char)(ctx.h[w] >> (24 - 8 * b));
}

/* Selector block t into block: SHA-256(key || "FRAG-SEL" || LE64(t)). */
static void selector_block(const unsigned char *key, uint64_t t, unsigned char *block)
{
    unsigned char message[SHA256_CBLOCK] = {0};
    memcpy(message, key, KEY_LEN);
    memcpy(message + KEY_LEN, DOMAIN, DOMAIN_LEN);
    le64(message + KEY_LEN + DOMAIN_LEN, t);
    pad(message, SELECTOR_MESSAGE_LEN);
    one_block(message, block);
}

/* A unit's keystream message with the key in place and padded; keystream
 * fills in the rest. */
static void keystream_message(const unsigned char *key, unsigned char message[SHA256_CBLOCK])
{
    memset(message, 0, SHA256_CBLOCK);
    memcpy(message + SUB_LEN, key, KEY_LEN);
    pad(message, MESSAGE_LEN);
}

/* The keystream digest of unit index into d, the 1-lane path:
 * SHA-256(picked || key || LE64(index)), one compression. */
static void keystream(unsigned char message[SHA256_CBLOCK], const unsigned char *picked, uint64_t index,
                      uint32_t d[WORDS])
{
    memcpy(message, picked, SUB_LEN);
    le64(message + SUB_LEN + KEY_LEN, index);
    one_block(message, (unsigned char *)d);
}

#if defined(__x86_64__)
#define LANE_TARGET __attribute__((target("avx512f,avx512vl")))
typedef uint32_t lane_words __attribute__((vector_size(4 * LANES)));
typedef uint32_t unit_words __attribute__((vector_size(UNIT_LEN)));

static const uint32_t ROUND_K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

#define ROTR(x, n) ((x) >> (n) | (x) << (32 - (n)))
#define BSWAP(x) ((x) >> 24 | ((x) >> 8 & 0xff00) | ((x) & 0xff00) << 8 | (x) << 24)

/* SHA-256 of 16 one-block messages of len bytes, len < 56 and a multiple
 * of 4, in rows of 32 bytes: lane l of w[k] is word k of message l, read
 * big-endian, and words len / 4 on are zero.  The rounds are unrolled, so
 * w stays in registers.  One copy serves both messages: inlined into both
 * callers, it measured no faster, and the build took half as long again
 * (the UBSan build twice as long). */
static __attribute__((noinline)) LANE_TARGET void hash16(lane_words w[16], int len, unsigned char *rows)
{
    const lane_words zero = {0};
    w[len / 4] = zero + 0x80000000u;
    w[15] = zero + 8 * (uint32_t)len;
    lane_words a = zero + INITIAL_H[0], b = zero + INITIAL_H[1], c = zero + INITIAL_H[2], d = zero + INITIAL_H[3],
               e = zero + INITIAL_H[4], f = zero + INITIAL_H[5], g = zero + INITIAL_H[6], hh = zero + INITIAL_H[7];
#pragma GCC unroll 64
    for (int t = 0; t < 64; t++) {
        if (t >= 16) {
            lane_words w15 = w[(t - 15) & 15], w2 = w[(t - 2) & 15];
            w[t & 15] += (ROTR(w15, 7) ^ ROTR(w15, 18) ^ w15 >> 3) + w[(t - 7) & 15]
                         + (ROTR(w2, 17) ^ ROTR(w2, 19) ^ w2 >> 10);
        }
        lane_words t1 = hh + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) + ((e & f) ^ (~e & g)) + ROUND_K[t] + w[t & 15];
        lane_words t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
        hh = g, g = f, f = e, e = d + t1, d = c, c = b, b = a, a = t1 + t2;
    }
    lane_words h[8] = {a, b, c, d, e, f, g, hh};
#pragma GCC unroll 8
    for (int k = 0; k < 8; k++)
        h[k] = BSWAP(h[k] + INITIAL_H[k]);
    /* Into rows, by three perfect shuffles of the 128 words: each moves a
     * word to the index that is its own rotated left by one bit of seven,
     * so word k of lane l ends at 8l + k. */
    const lane_words low = {0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23}, high = low + 8;
#pragma GCC unroll 3
    for (int round = 0; round < 3; round++) {
        lane_words z[8];
#pragma GCC unroll 4
        for (int k = 0; k < 4; k++) {
            z[2 * k] = __builtin_shuffle(h[k], h[k + 4], low);
            z[2 * k + 1] = __builtin_shuffle(h[k], h[k + 4], high);
        }
        memcpy(h, z, sizeof h);
    }
    memcpy(rows, h, sizeof h);
}

/* The n big-endian words of bytes into w[0 .. n - 1], the same in every lane. */
static LANE_TARGET void broadcast_words(const unsigned char *bytes, int n, lane_words *w)
{
    for (int k = 0; k < n; k++)
        w[k] = (lane_words){0} + ((uint32_t)bytes[4 * k] << 24 | (uint32_t)bytes[4 * k + 1] << 16
                                  | (uint32_t)bytes[4 * k + 2] << 8 | bytes[4 * k + 3]);
}

/* LE64(first + l) in lane l, as the two message words it fills. */
static LANE_TARGET void index_words(uint64_t first, lane_words *w)
{
    const lane_words zero = {0}, lane = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    lane_words low = zero + (uint32_t)first + lane;
    /* A lane whose low word wrapped past 2**32 carries into its high word. */
    lane_words high = zero + (uint32_t)(first >> 32) - (lane_words)(low < zero + (uint32_t)first);
    w[0] = BSWAP(low);
    w[1] = BSWAP(high);
}

/* The keystream digests of units first .. first + 15, in rows of 32
 * bytes: lane l hashes picked[4l..4l+4) || key || LE64(first + l). */
static LANE_TARGET void keystreams16(const unsigned char *picked, const unsigned char *key, uint64_t first,
                                     unsigned char *digests)
{
    lane_words w[16] = {0};
    memcpy(&w[0], picked, sizeof w[0]);
    w[0] = BSWAP(w[0]);
    broadcast_words(key, KEY_LEN / 4, w + 1);
    index_words(first, w + 1 + KEY_LEN / 4);
    hash16(w, MESSAGE_LEN, digests);
}

/* Selector blocks t .. t + 15, in rows of 32 bytes. */
static LANE_TARGET void selector_blocks16(const unsigned char *key, uint64_t t, unsigned char *blocks)
{
    lane_words w[16] = {0};
    broadcast_words(key, KEY_LEN / 4, w);
    broadcast_words((const unsigned char *)DOMAIN, DOMAIN_LEN / 4, w + KEY_LEN / 4);
    index_words(t, w + (KEY_LEN + DOMAIN_LEN) / 4);
    hash16(w, SELECTOR_MESSAGE_LEN, blocks);
}

/* The AVX-512 instructions of the lane path that vector extensions do not
 * reach, as inline assembly: with immintrin.h for them, the header alone
 * took as long to compile as the rest of this file.  keep has a bit set
 * for each word of a unit that its remainder holds, ~(1 << selector). */

/* VPCOMPRESSD: the words of w under keep, packed low; the rest zero. */
static inline LANE_TARGET unit_words compress(unit_words w, uint16_t keep)
{
    unit_words r;
    __asm__("vpcompressd %1, %0%{%2%}%{z%}" : "=v"(r) : "v"(w), "Yk"(keep));
    return r;
}

/* VPEXPANDD: the low words of r spread over the words under keep; the
 * other words are those of into. */
static inline LANE_TARGET unit_words expand(unit_words r, uint16_t keep, unit_words into)
{
    __asm__("vpexpandd %1, %0%{%2%}" : "+v"(into) : "v"(r), "Yk"(keep));
    return into;
}

/* VMOVDQU32 under mask 0x7f: words 0..6 of r, a remainder's 28 bytes. */
static inline LANE_TARGET void store7(unsigned char *out, unit_words r)
{
    __asm__("vmovdqu32 %1, %0%{%2%}" : "=m"(*(unsigned char(*)[REMAINDER_LEN])out) : "v"(r), "Yk"((uint16_t)0x7f));
}

/* The 28 bytes at in as words 0..6; word 7 zero. */
static inline LANE_TARGET unit_words load7(const unsigned char *in)
{
    unit_words r;
    __asm__("vmovdqu32 %1, %0%{%2%}%{z%}"
            : "=v"(r) : "m"(*(const unsigned char(*)[REMAINDER_LEN])in), "Yk"((uint16_t)0x7f));
    return r;
}

/* Units first .. first + 15 through protect, their selectors from sel:
 * each remainder is the unit's eight words compressed under keep. */
static LANE_TARGET void protect16(const unsigned char *units, const unsigned char *key, uint64_t first,
                                  const unsigned char *sel, unsigned char *pub, unsigned char *picked)
{
    unsigned char digests[LANES * SHA256_DIGEST_LENGTH];
    for (int l = 0; l < LANES; l++)
        memcpy(picked + SUB_LEN * l, units + UNIT_LEN * l + SUB_LEN * (sel[l] & 7), SUB_LEN);
    keystreams16(picked, key, first, digests);
    for (int l = 0; l < LANES; l++) {
        unit_words w, d;
        memcpy(&w, units + UNIT_LEN * l, UNIT_LEN);
        memcpy(&d, digests + SHA256_DIGEST_LENGTH * l, UNIT_LEN);
        store7(pub + REMAINDER_LEN * l, compress(w, (uint16_t) ~(1u << (sel[l] & 7))) ^ d);
    }
}

/* Inverse of protect16: each unit is its seven remainder words expanded
 * under keep over the picked word. */
static LANE_TARGET void recover16(const unsigned char *pub, const unsigned char *picked, const unsigned char *key,
                                  uint64_t first, const unsigned char *sel, unsigned char *units)
{
    unsigned char digests[LANES * SHA256_DIGEST_LENGTH];
    keystreams16(picked, key, first, digests);
    for (int l = 0; l < LANES; l++) {
        uint32_t word;
        unit_words d, u;
        memcpy(&word, picked + SUB_LEN * l, SUB_LEN);
        memcpy(&d, digests + SHA256_DIGEST_LENGTH * l, UNIT_LEN);
        u = expand(load7(pub + REMAINDER_LEN * l) ^ d, (uint16_t) ~(1u << (sel[l] & 7)), (unit_words){0} + word);
        memcpy(units + UNIT_LEN * l, &u, UNIT_LEN);
    }
}
#endif

/* How many units' keystreams one hash call computes on this CPU: 16 or 1. */
int sefrag_lanes(void)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
        return LANES;
#endif
    return 1;
}

/* The selector blocks of one chunk call, over units first .. first +
 * count - 1: bytes holds held blocks from block base on, none before the
 * first batch. */
struct selectors {
    const unsigned char *key;
    uint64_t first, last_block, base;
    size_t held;
    int lanes;
    unsigned char bytes[LANES * SELECTORS_PER_BLOCK];
};

/* The selector bytes of units first + i .. first + i + n - 1.  Once the
 * last of them falls past the blocks held, the window moves to block
 * (first + i) / 32 and holds up to 16 blocks: hashed in lanes when the
 * call needs 16 more and the CPU has them, else one at a time. */
static const unsigned char *selectors(struct selectors *s, size_t i, size_t n)
{
    uint64_t u = s->first + i;
    if ((u + n - 1) / SELECTORS_PER_BLOCK >= s->base + s->held) {
        s->base = u / SELECTORS_PER_BLOCK;
        s->held = s->last_block - s->base < LANES ? (size_t)(s->last_block - s->base) + 1 : LANES;
        size_t b = 0;
#if defined(__x86_64__)
        if (s->held == LANES && s->lanes == LANES) {
            selector_blocks16(s->key, s->base, s->bytes);
            b = LANES;
        }
#endif
        for (; b < s->held; b++)
            selector_block(s->key, s->base + b, s->bytes + SELECTORS_PER_BLOCK * b);
    }
    return s->bytes + (u - SELECTORS_PER_BLOCK * s->base);
}


/* units: count * 32 bytes in; pub: count * 28 protected remainder bytes
 * out; picked: count * 4 selected sub-fragment bytes out.  Unit i has
 * index first + i.  Units go through in batches of 16: on the lane path
 * whole, else one unit at a time. */
void sefrag_protect(const unsigned char *units, size_t count, const unsigned char *key, uint64_t first,
                    unsigned char *pub, unsigned char *picked)
{
    struct selectors s = {.key = key, .first = first, .last_block = (first + count - 1) / SELECTORS_PER_BLOCK,
                          .lanes = sefrag_lanes()};
    unsigned char message[SHA256_CBLOCK];
    keystream_message(key, message);
    for (size_t i = 0; i < count; i += LANES) {
        size_t n = count - i < LANES ? count - i : LANES;
        const unsigned char *sel = selectors(&s, i, n);
#if defined(__x86_64__)
        if (n == LANES && s.lanes == LANES) {
            protect16(units + UNIT_LEN * i, key, first + i, sel, pub + REMAINDER_LEN * i, picked + SUB_LEN * i);
            continue;
        }
#endif
        for (size_t l = 0; l < n; l++) {
            int pick = sel[l] & 7;
            uint32_t w[WORDS], d[WORDS], r[WORDS - 1];
            memcpy(w, units + UNIT_LEN * (i + l), UNIT_LEN);
            memcpy(picked + SUB_LEN * (i + l), &w[pick], SUB_LEN);
            keystream(message, picked + SUB_LEN * (i + l), first + i + l, d);
            for (int k = 0; k < WORDS - 1; k++)
                r[k] = w[k + (k >= pick)] ^ d[k];
            memcpy(pub + REMAINDER_LEN * (i + l), r, REMAINDER_LEN);
        }
    }
}

/* Inverse of sefrag_protect: pub (count * 28) and picked (count * 4) in,
 * units (count * 32) out. */
void sefrag_recover(const unsigned char *pub, const unsigned char *picked, size_t count, const unsigned char *key,
                    uint64_t first, unsigned char *units)
{
    struct selectors s = {.key = key, .first = first, .last_block = (first + count - 1) / SELECTORS_PER_BLOCK,
                          .lanes = sefrag_lanes()};
    unsigned char message[SHA256_CBLOCK];
    keystream_message(key, message);
    for (size_t i = 0; i < count; i += LANES) {
        size_t n = count - i < LANES ? count - i : LANES;
        const unsigned char *sel = selectors(&s, i, n);
#if defined(__x86_64__)
        if (n == LANES && s.lanes == LANES) {
            recover16(pub + REMAINDER_LEN * i, picked + SUB_LEN * i, key, first + i, sel, units + UNIT_LEN * i);
            continue;
        }
#endif
        for (size_t l = 0; l < n; l++) {
            int pick = sel[l] & 7;
            uint32_t r[WORDS - 1], d[WORDS], u[WORDS];
            memcpy(r, pub + REMAINDER_LEN * (i + l), REMAINDER_LEN);
            keystream(message, picked + SUB_LEN * (i + l), first + i + l, d);
            for (int k = 0; k < WORDS - 1; k++)
                u[k + (k >= pick)] = r[k] ^ d[k];
            memcpy(&u[pick], picked + SUB_LEN * (i + l), SUB_LEN);
            memcpy(units + UNIT_LEN * (i + l), u, UNIT_LEN);
        }
    }
}

/* x <- SHA-256(x || suffix), iterations times from an empty x; the
 * suffix is passphrase || salt and may hold NUL bytes.  out: 32 bytes. */
int sefrag_derive(const unsigned char *suffix, size_t suffix_len, uint64_t iterations, unsigned char *out)
{
    SHA256_CTX ctx;
    unsigned char x[SHA256_DIGEST_LENGTH];
    size_t x_len = 0;
    for (uint64_t i = 0; i < iterations; i++) {
        if (!(SHA256_Init(&ctx) && SHA256_Update(&ctx, x, x_len) && SHA256_Update(&ctx, suffix, suffix_len)
              && SHA256_Final(x, &ctx)))
            return 0;
        x_len = sizeof x;
    }
    memcpy(out, x, x_len);
    return 1;
}

/* The passes.  A file's whole units go through in chunks of chunk_units
 * units (a multiple of 4, so each chunk's picks fill whole cipher blocks).
 * The three files of a pass sit in fixed slots: the content, read by the
 * seal and written by the open, and the public and private streams, written
 * by the seal and read by the open, each from its own offset.  The private
 * stream is ciphertext: chunk k's picks are its bytes from 4 *
 * chunk_units * k on. */

#define BLOCK 16
#define PASS_SHORT (-1)  /* a read came short: the input ended *missing bytes early */
#define PASS_CRYPTO (-2) /* a libcrypto call failed */
#define STOPPED (-3)     /* a worker left its chunk after an earlier one failed; never returned */

enum { CONTENT, PUBLIC, PRIVATE };

/* libcrypto's EVP_CipherUpdate. */
typedef int (*cipher_update)(void *ctx, unsigned char *out, int *outl, const unsigned char *in, int inl);

struct worker;

struct pass {
    int fd[3];
    off_t at[3];
    uint64_t units;
    size_t chunk_units, chunks;
    const unsigned char *key, *iv;
    cipher_update update;
    unsigned char *end; /* the seal's output: the picks past the last whole block, the tail, the digest */
    int (*chunk)(struct worker *w, size_t k);
    int threaded; /* set by run where its thread ran */
    SHA256_CTX sha;
    /* Under lock: the next chunk to claim, the chunk whose turn it is,
     * and the first chunk that failed (SIZE_MAX while none has) with its
     * status and missing byte count. */
    pthread_mutex_t lock;
    pthread_cond_t turned;
    size_t next, turn, failed_at;
    int status;
    uint64_t missing;
};

/* A worker's context (the seal's one chain, or the open's own) and
 * chunk buffers; picked and cipher hold a cipher block more than a
 * chunk's picks, for the open's chained block. */
struct worker {
    struct pass *p;
    void *ctx;
    uint64_t missing;
    unsigned char *units, *pub, *picked, *cipher;
};

/* n bytes at offset at of fd into buf: 0, an errno, or PASS_SHORT with
 * the bytes the file lacked in *missing. */
static int read_at(int fd, unsigned char *buf, size_t n, off_t at, uint64_t *missing)
{
    while (n) {
        ssize_t got = pread(fd, buf, n, at);
        if (got < 0 && errno == EINTR)
            continue;
        if (got < 0)
            return errno;
        if (got == 0) {
            *missing = n;
            return PASS_SHORT;
        }
        buf += got, n -= (size_t)got, at += got;
    }
    return 0;
}

/* n bytes of buf to offset at of fd: 0 or an errno. */
static int write_at(int fd, const unsigned char *buf, size_t n, off_t at)
{
    while (n) {
        ssize_t put = pwrite(fd, buf, n, at);
        if (put < 0 && errno == EINTR)
            continue;
        if (put <= 0)
            return put < 0 ? errno : EIO;
        buf += put, n -= (size_t)put, at += put;
    }
    return 0;
}

/* AES-CBC over n bytes, whole blocks, on ctx: 1, or 0 when libcrypto fails. */
static int cipher(const struct pass *p, void *ctx, unsigned char *out, const unsigned char *in, size_t n)
{
    int outl = 0;
    return n == 0 || (p->update(ctx, out, &outl, in, (int)n) && (size_t)outl == n);
}

/* The n cipher bytes from private-stream offset start (a multiple of 16)
 * into buf after the cipher block before them, the IV at offset 0, so
 * that deciphering buf restarts the chain there and the plaintext starts
 * at buf + BLOCK. */
static int read_chained(const struct pass *p, unsigned char *buf, size_t n, uint64_t start, uint64_t *missing)
{
    if (start == 0) {
        memcpy(buf, p->iv, BLOCK);
        return read_at(p->fd[PRIVATE], buf + BLOCK, n, p->at[PRIVATE], missing);
    }
    return read_at(p->fd[PRIVATE], buf, BLOCK + n, p->at[PRIVATE] + (off_t)(start - BLOCK), missing);
}

/* Claims the next chunk into *k, unless none is left or one has failed. */
static int claim(struct pass *p, size_t *k)
{
    pthread_mutex_lock(&p->lock);
    int claimed = p->next < p->chunks && p->failed_at == SIZE_MAX;
    if (claimed)
        *k = p->next++;
    pthread_mutex_unlock(&p->lock);
    return claimed;
}

/* Waits, without spinning, until it is chunk k's turn: 1, or 0 once an
 * earlier chunk has failed, so that the turn may never come. */
static int take_turn(struct pass *p, size_t k)
{
    pthread_mutex_lock(&p->lock);
    while (p->turn != k && p->failed_at > k)
        pthread_cond_wait(&p->turned, &p->lock);
    int mine = p->failed_at > k;
    pthread_mutex_unlock(&p->lock);
    return mine;
}

static void pass_turn(struct pass *p)
{
    pthread_mutex_lock(&p->lock);
    p->turn++;
    pthread_cond_broadcast(&p->turned);
    pthread_mutex_unlock(&p->lock);
}

/* Records chunk k's failure, if no earlier chunk has failed: the pass
 * reports the first failure in chunk order, as a serial pass would, and
 * every chunk before it runs to its end. */
static void fail(struct pass *p, size_t k, int status, uint64_t missing)
{
    pthread_mutex_lock(&p->lock);
    if (k < p->failed_at)
        p->failed_at = k, p->status = status, p->missing = missing;
    pthread_cond_broadcast(&p->turned);
    pthread_mutex_unlock(&p->lock);
}

static void *work(void *arg)
{
    struct worker *w = arg;
    size_t k, n = w->p->chunk_units;
    w->pub = w->units + UNIT_LEN * n;
    w->picked = w->pub + REMAINDER_LEN * n;
    w->cipher = w->picked + SUB_LEN * n + BLOCK;
    while (claim(w->p, &k)) {
        int status = w->p->chunk(w, k);
        if (status) {
            if (status != STOPPED)
                fail(w->p, k, status, w->missing);
            break;
        }
    }
    return NULL;
}

/* Starts worker w on a thread named sefrag-pass, pinned to the CPUs the
 * calling thread may run on less the one it runs on now, with every
 * signal blocked, so that they reach the caller's threads: 1, or 0 where
 * no CPU is left or it cannot start.  A mask too large for a cpu_set_t
 * (over 1,024 possible CPUs) fails sched_getaffinity, and off Linux no
 * thread starts: the caller runs alone. */
#if defined(__linux__)
static void *pass_thread(void *arg)
{
    pthread_setname_np(pthread_self(), "sefrag-pass");
    return work(arg);
}

static int start(pthread_t *thread, struct worker *w)
{
    pthread_attr_t attr;
    cpu_set_t set;
    sigset_t all, old;
    int started = 0, cpu = sched_getcpu();
    if (cpu < 0 || cpu >= CPU_SETSIZE || sched_getaffinity(0, sizeof set, &set))
        return 0;
    CPU_CLR(cpu, &set);
    sigfillset(&all);
    if (!CPU_COUNT(&set) || pthread_attr_init(&attr))
        return 0;
    if (!pthread_attr_setaffinity_np(&attr, sizeof set, &set)) {
        pthread_sigmask(SIG_BLOCK, &all, &old);
        started = !pthread_create(thread, &attr, pass_thread, w);
        pthread_sigmask(SIG_SETMASK, &old, NULL);
    }
    pthread_attr_destroy(&attr);
    return started;
}
#else
static int start(pthread_t *thread, struct worker *w)
{
    (void)thread, (void)w;
    return 0;
}
#endif

/* Chunk k's first unit and unit count. */
static size_t chunk_size(const struct pass *p, size_t k, uint64_t *first)
{
    *first = (uint64_t)k * p->chunk_units;
    return p->units - *first < p->chunk_units ? (size_t)(p->units - *first) : p->chunk_units;
}

/* Read, protect, then in turn hash the units and encipher the picks'
 * whole blocks on the one chain; then write both. */
static int seal_chunk(struct worker *w, size_t k)
{
    struct pass *p = w->p;
    uint64_t first;
    size_t n = chunk_size(p, k, &first), whole = SUB_LEN * n / BLOCK * BLOCK;
    int status = read_at(p->fd[CONTENT], w->units, UNIT_LEN * n, p->at[CONTENT] + (off_t)(UNIT_LEN * first),
                         &w->missing);
    if (status)
        return status;
    sefrag_protect(w->units, n, p->key, first, w->pub, w->picked);
    if (!take_turn(p, k))
        return STOPPED;
    int ok = SHA256_Update(&p->sha, w->units, UNIT_LEN * n) && cipher(p, w->ctx, w->cipher, w->picked, whole);
    if (k == p->chunks - 1)
        memcpy(p->end, w->picked + whole, SUB_LEN * n - whole);
    pass_turn(p);
    if (!ok)
        return PASS_CRYPTO;
    status = write_at(p->fd[PUBLIC], w->pub, REMAINDER_LEN * n, p->at[PUBLIC] + (off_t)(REMAINDER_LEN * first));
    return status ? status : write_at(p->fd[PRIVATE], w->cipher, whole, p->at[PRIVATE] + (off_t)(SUB_LEN * first));
}

/* Read and decipher the picks on this worker's context, read the public
 * remainders, recover, then in turn hash the units; then write them. */
static int open_chunk(struct worker *w, size_t k)
{
    struct pass *p = w->p;
    uint64_t first;
    size_t n = chunk_size(p, k, &first), whole = (SUB_LEN * n + BLOCK - 1) / BLOCK * BLOCK;
    int status = read_chained(p, w->cipher, whole, SUB_LEN * first, &w->missing);
    if (!status)
        status = read_at(p->fd[PUBLIC], w->pub, REMAINDER_LEN * n, p->at[PUBLIC] + (off_t)(REMAINDER_LEN * first),
                         &w->missing);
    if (status)
        return status;
    if (!cipher(p, w->ctx, w->picked, w->cipher, BLOCK + whole))
        return PASS_CRYPTO;
    sefrag_recover(w->pub, w->picked + BLOCK, n, p->key, first, w->units);
    if (!take_turn(p, k))
        return STOPPED;
    int ok = SHA256_Update(&p->sha, w->units, UNIT_LEN * n);
    pass_turn(p);
    if (!ok)
        return PASS_CRYPTO;
    return write_at(p->fd[CONTENT], w->units, UNIT_LEN * n, p->at[CONTENT] + (off_t)(UNIT_LEN * first));
}

/* Runs every chunk on the caller and, from three chunks on (two do not
 * repay a thread), on one thread more where start gives one, and joins
 * it: worker i uses ctx[i]. */
static int run(struct pass *p, void *const ctx[2], uint64_t *missing)
{
    size_t size = (UNIT_LEN + REMAINDER_LEN + 2 * SUB_LEN) * p->chunk_units + 2 * BLOCK;
    struct worker w[2] = {{.p = p, .ctx = ctx[0]}, {.p = p, .ctx = ctx[1]}};
    pthread_t thread;
    int started = 0;
    p->chunks = (p->units + p->chunk_units - 1) / p->chunk_units;
    if (!SHA256_Init(&p->sha))
        return PASS_CRYPTO;
    if (!p->chunks)
        return 0;
    if (!(w[0].units = malloc(size)))
        return ENOMEM;
    pthread_mutex_init(&p->lock, NULL);
    pthread_cond_init(&p->turned, NULL);
    p->failed_at = SIZE_MAX;
    if (p->chunks > 2 && (w[1].units = malloc(size)))
        started = start(&thread, &w[1]);
    p->threaded = started;
    work(&w[0]);
    if (started)
        pthread_join(thread, NULL);
    free(w[0].units);
    free(w[1].units);
    pthread_cond_destroy(&p->turned);
    pthread_mutex_destroy(&p->lock);
    if (p->failed_at == SIZE_MAX)
        return 0;
    *missing = p->missing;
    return p->status;
}

/* Seal a file of content_len bytes: every chunk through run, then the
 * tail.  ctx is the private stream's encrypting context, its chain at the
 * IV.  end, 4 * units % 16 + content_len % 32 + 32 bytes, gets the private
 * stream's plaintext that is not yet ciphered: the last picks short of a
 * block, the tail and SHA-256(content).  *workers gets the workers the
 * pass ran on, 1 or 2. */
int sefrag_seal_pass(const int fd[3], const int64_t at[3], uint64_t content_len, size_t chunk_units,
                     const unsigned char *key, cipher_update update, void *ctx, unsigned char *end, int *workers,
                     uint64_t *missing)
{
    struct pass p = {.fd = {fd[0], fd[1], fd[2]}, .at = {at[0], at[1], at[2]}, .units = content_len / UNIT_LEN,
                     .chunk_units = chunk_units, .key = key, .update = update, .end = end, .chunk = seal_chunk};
    void *const chain[2] = {ctx, ctx}; /* both workers cipher on the one chain, in turn */
    int status = run(&p, chain, missing);
    *workers = 1 + p.threaded;
    if (status)
        return status;
    size_t rest = SUB_LEN * p.units % BLOCK, tail = content_len % UNIT_LEN;
    status = read_at(fd[CONTENT], end + rest, tail, at[CONTENT] + (off_t)(UNIT_LEN * p.units), missing);
    if (status)
        return status;
    return SHA256_Update(&p.sha, end + rest, tail) && SHA256_Final(end + rest + tail, &p.sha) ? 0 : PASS_CRYPTO;
}

/* Open a pair of content_len bytes of content: every chunk through run,
 * then the tail, written last.  ctx[0] and ctx[1] are decrypting
 * contexts, the second for a second worker, which the pass may not run.
 * digests, 64 bytes, gets SHA-256 of the content written, then the
 * digest the private stream holds. */
int sefrag_open_pass(const int fd[3], const int64_t at[3], uint64_t content_len, size_t chunk_units,
                     const unsigned char *key, const unsigned char *iv, cipher_update update, void *const ctx[2],
                     unsigned char *digests, uint64_t *missing)
{
    struct pass p = {.fd = {fd[0], fd[1], fd[2]}, .at = {at[0], at[1], at[2]}, .units = content_len / UNIT_LEN,
                     .chunk_units = chunk_units, .key = key, .iv = iv, .update = update, .chunk = open_chunk};
    int status = run(&p, ctx, missing);
    if (status)
        return status;
    /* The blocks from the one that holds the last picks to the digest's end. */
    uint64_t start = SUB_LEN * p.units / BLOCK * BLOCK;
    size_t skip = SUB_LEN * p.units % BLOCK, tail = content_len % UNIT_LEN;
    size_t n = (skip + tail + SHA256_DIGEST_LENGTH + BLOCK - 1) / BLOCK * BLOCK;
    unsigned char in[BLOCK + 5 * BLOCK], out[BLOCK + 5 * BLOCK];
    status = read_chained(&p, in, n, start, missing);
    if (status)
        return status;
    const unsigned char *plain = out + BLOCK + skip;
    if (!(cipher(&p, ctx[0], out, in, BLOCK + n) && SHA256_Update(&p.sha, plain, tail)
          && SHA256_Final(digests, &p.sha)))
        return PASS_CRYPTO;
    memcpy(digests + SHA256_DIGEST_LENGTH, plain + tail, SHA256_DIGEST_LENGTH);
    return write_at(fd[CONTENT], plain, tail, at[CONTENT] + (off_t)(UNIT_LEN * p.units));
}
