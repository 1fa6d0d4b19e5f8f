/* Native per-chunk kernel, KDF and AES-128-CBC for sefrag, over libcrypto.
 *
 * Plain C with no Python headers; sefrag._native builds it on first use,
 * with the command in _native.COMPILE and _native.LIBS, and calls it
 * through ctypes.  Each function is the byte-for-byte equivalent of a
 * pure-Python function, which stays the reference:
 *
 *   sefrag_protect  _native.PythonKernel.protect: one chunk, gather -> keystream -> XOR
 *   sefrag_recover  _native.PythonKernel.recover: one chunk, keystream -> XOR -> scatter
 *   keystreams16    _native._keystream: the keystream digests of 16 units at once
 *   sefrag_derive   _native.PythonKernel.derive: the whole derive_key loop
 *   sefrag_cbc      _native.PythonKernel.cbc: AES-128-CBC over whole blocks, no padding
 *
 * A chunk is a pure function of its bytes, the key and the index of its
 * first unit.  Unit u's selector is byte u % 32 of selector block u / 32,
 * SHA-256(key || "FRAG-SEL" || LE64(u / 32)), read & 7; the chunk
 * functions hash those blocks themselves, each once per call.  Both the
 * selector block's message (32 bytes) and a unit's keystream message
 * (28 bytes) fit one 64-byte SHA-256 block, so each of those hashes is
 * one compression of a block padded in place.
 *
 * The keystreams of 16 consecutive units are independent one-block
 * hashes, so on an x86-64 CPU with AVX-512F keystreams16 runs them as
 * the 16 lanes of one SHA-256 (Gueron & Krasnov, "Simultaneous Hashing
 * of Multiple Messages", 2012), written with GCC vector extensions.
 * sefrag_lanes asks the CPU (__builtin_cpu_supports, whose answer libgcc
 * fills in before any of this code runs) and says which path runs;
 * keystreams asks it for every batch of 16.  Elsewhere, and for a chunk's
 * last count % 16 units, each unit is one libcrypto compression from the
 * SHA-256 initial state.  Both give the same bytes.
 *
 * A unit is eight 4-byte words and its remainder the seven it keeps, in
 * order: remainder word k is unit word k + (k >= selector).  Both chunk
 * functions move those seven words in fixed loops, so no loop bound
 * depends on the selector.
 *
 * The caller checks every buffer length before the call.  The chunk
 * functions cannot fail: no call on their path reports an error, so they
 * return void.  sefrag_derive and sefrag_cbc return 0, or -1 when a
 * libcrypto call fails.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <openssl/evp.h>
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

/* The selector of unit u; block holds selector block u / 32 once this
 * has run for the first unit of a call or of a block. */
static int selector(const unsigned char *key, uint64_t u, int first_of_call, unsigned char *block)
{
    if (first_of_call || u % SELECTORS_PER_BLOCK == 0) {
        unsigned char message[SHA256_CBLOCK] = {0};
        memcpy(message, key, KEY_LEN);
        memcpy(message + KEY_LEN, DOMAIN, DOMAIN_LEN);
        le64(message + KEY_LEN + DOMAIN_LEN, u / SELECTORS_PER_BLOCK);
        pad(message, SELECTOR_MESSAGE_LEN);
        one_block(message, block);
    }
    return block[u % SELECTORS_PER_BLOCK] & 7;
}

#if defined(__x86_64__)
typedef uint32_t lane_words __attribute__((vector_size(4 * LANES)));

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

/* The keystream digests of units first .. first + 15, in rows of 32
 * bytes: lane l hashes picked[4l..4l+4) || key || LE64(first + l), the
 * message of the per-unit path, as one padded block. */
__attribute__((target("avx512f"))) static void keystreams16(const unsigned char *picked, const unsigned char *key,
                                                             uint64_t first, unsigned char *digests)
{
    const lane_words zero = {0}, lane = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    lane_words w[16], low = zero + (uint32_t)first + lane;
    /* A lane whose low word wrapped past 2**32 carries into its high word. */
    lane_words high = zero + (uint32_t)(first >> 32) - (lane_words)(low < zero + (uint32_t)first);
    memcpy(&w[0], picked, sizeof w[0]);
    w[0] = BSWAP(w[0]);
    for (int k = 0; k < KEY_LEN / 4; k++)
        w[1 + k] = zero + ((uint32_t)key[4 * k] << 24 | (uint32_t)key[4 * k + 1] << 16
                           | (uint32_t)key[4 * k + 2] << 8 | key[4 * k + 3]);
    w[5] = BSWAP(low);
    w[6] = BSWAP(high);
    w[7] = zero + 0x80000000u;
    for (int k = 8; k < 15; k++)
        w[k] = zero;
    w[15] = zero + 8 * MESSAGE_LEN;
    lane_words a = zero + INITIAL_H[0], b = zero + INITIAL_H[1], c = zero + INITIAL_H[2], d = zero + INITIAL_H[3],
               e = zero + INITIAL_H[4], f = zero + INITIAL_H[5], g = zero + INITIAL_H[6], hh = zero + INITIAL_H[7];
    /* Unrolled, w stays in registers and the constant words fold away. */
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
    for (int k = 0; k < 8; k++)
        h[k] = BSWAP(h[k] + INITIAL_H[k]);
    for (int l = 0; l < LANES; l++)
        for (int k = 0; k < 8; k++) {
            uint32_t word = h[k][l];
            memcpy(digests + SHA256_DIGEST_LENGTH * l + 4 * k, &word, 4);
        }
}
#endif

/* How many units' keystreams one hash call computes on this CPU: 16 or 1. */
int sefrag_lanes(void)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f"))
        return LANES;
#endif
    return 1;
}

/* The keystream digests of units first .. first + n - 1, n <= 16, in
 * rows of 32 bytes: SHA-256(picked || key || LE64(index)) per unit. */
static void keystreams(const unsigned char *picked, size_t n, const unsigned char *key, uint64_t first,
                       unsigned char *digests)
{
#if defined(__x86_64__)
    if (n == LANES && sefrag_lanes() == LANES) {
        keystreams16(picked, key, first, digests);
        return;
    }
#endif
    unsigned char message[SHA256_CBLOCK] = {0};
    memcpy(message + SUB_LEN, key, KEY_LEN);
    pad(message, MESSAGE_LEN);
    for (size_t l = 0; l < n; l++) {
        memcpy(message, picked + SUB_LEN * l, SUB_LEN);
        le64(message + SUB_LEN + KEY_LEN, first + l);
        one_block(message, digests + SHA256_DIGEST_LENGTH * l);
    }
}

/* units: count * 32 bytes in; pub: count * 28 protected remainder bytes
 * out; picked: count * 4 selected sub-fragment bytes out.  Unit i has
 * index first + i.  Units go through in batches of up to 16. */
void sefrag_protect(const unsigned char *units, size_t count, const unsigned char *key, uint64_t first,
                    unsigned char *pub, unsigned char *picked)
{
    unsigned char digests[LANES * SHA256_DIGEST_LENGTH], block[SELECTORS_PER_BLOCK];
    int sels[LANES];
    for (size_t i = 0; i < count; i += LANES) {
        size_t n = count - i < LANES ? count - i : LANES;
        for (size_t l = 0; l < n; l++) {
            sels[l] = selector(key, first + i + l, i + l == 0, block);
            memcpy(picked + SUB_LEN * (i + l), units + UNIT_LEN * (i + l) + SUB_LEN * sels[l], SUB_LEN);
        }
        keystreams(picked + SUB_LEN * i, n, key, first + i, digests);
        for (size_t l = 0; l < n; l++) {
            uint32_t w[WORDS], d[WORDS - 1], r[WORDS - 1];
            memcpy(w, units + UNIT_LEN * (i + l), UNIT_LEN);
            memcpy(d, digests + SHA256_DIGEST_LENGTH * l, REMAINDER_LEN);
            for (int k = 0; k < WORDS - 1; k++)
                r[k] = w[k + (k >= sels[l])] ^ d[k];
            memcpy(pub + REMAINDER_LEN * (i + l), r, REMAINDER_LEN);
        }
    }
}

/* Inverse of sefrag_protect: pub (count * 28) and picked (count * 4) in,
 * units (count * 32) out. */
void sefrag_recover(const unsigned char *pub, const unsigned char *picked, size_t count, const unsigned char *key,
                    uint64_t first, unsigned char *units)
{
    unsigned char digests[LANES * SHA256_DIGEST_LENGTH], block[SELECTORS_PER_BLOCK];
    for (size_t i = 0; i < count; i += LANES) {
        size_t n = count - i < LANES ? count - i : LANES;
        keystreams(picked + SUB_LEN * i, n, key, first + i, digests);
        for (size_t l = 0; l < n; l++) {
            int sel = selector(key, first + i + l, i + l == 0, block);
            uint32_t r[WORDS - 1], d[WORDS - 1], u[WORDS];
            memcpy(r, pub + REMAINDER_LEN * (i + l), REMAINDER_LEN);
            memcpy(d, digests + SHA256_DIGEST_LENGTH * l, REMAINDER_LEN);
            for (int k = 0; k < WORDS - 1; k++)
                u[k + (k >= sel)] = r[k] ^ d[k];
            memcpy(&u[sel], picked + SUB_LEN * (i + l), SUB_LEN);
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
            return -1;
        x_len = sizeof x;
    }
    memcpy(out, x, x_len);
    return 0;
}

/* AES-128-CBC over len bytes, a whole number of blocks that fits an int,
 * with padding off: encrypt when encrypt is 1, decrypt when it is 0.
 * key and iv: 16 bytes each; out: len bytes. */
int sefrag_cbc(const unsigned char *key, const unsigned char *iv, const unsigned char *in, size_t len, int encrypt,
               unsigned char *out)
{
    EVP_CIPHER_CTX *ctx = EVP_CIPHER_CTX_new();
    int n = 0;
    int ok = ctx && EVP_CipherInit_ex(ctx, EVP_aes_128_cbc(), NULL, key, iv, encrypt)
             && EVP_CIPHER_CTX_set_padding(ctx, 0) && EVP_CipherUpdate(ctx, out, &n, in, (int)len)
             && (size_t)n == len;
    EVP_CIPHER_CTX_free(ctx);
    return ok ? 0 : -1;
}
