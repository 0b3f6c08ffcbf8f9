"""DuckDB oracle SQL for the query registry (pipelines/queries.py).

Every constant here is the ANSI-SQL twin of one Ray pipeline in
queries.py — the driver runs both sides at sf0.01 and compares
row count + schema + order-insensitive value hash (CORRECTNESS gate).
Shared window/query parameters that both the SQL and the Ray code
consume live here too (the flagship's ``SIZE_US`` and ``BIGRAM`` live
in flagship.py and are imported here), so the two sides can never
drift apart.

Conventions (mirrored by queries.py helpers):
- float columns round to 6 dp with `+ 0.0` (IEEE -0.0 -> +0.0);
- NaN-capable ratios use a -1.0 sentinel for 0/0;
- column aliases match the Ray output names EXACTLY (the driver's
  compare sorts columns by name before hashing).
"""

from __future__ import annotations

from ..transcripts import events_as_transcripts_sql
from .flagship import BIGRAM, SIZE_US

STEP_US = 2 * 3600 * 1_000_000          # 2 h sliding step (3 covers)

SESSION_GAP_US = 30 * 60 * 1_000_000    # 30 min session gap

TOPK_QUERY_IDS = [0, 1, 2]

_T = events_as_transcripts_sql()

_WIN = (f"SELECT conv_id, make_timestamp((epoch_us(ts) // {SIZE_US}) * {SIZE_US}) "
        f"AS window_start, turn_uid, role, text, ts FROM ({_T})")

SQL_TUMBLING_ROLE_COUNTS = f"""
SELECT conv_id, window_start, count(*) AS n_turns,
  count(*) FILTER (role = 'user') AS n_user,
  count(*) FILTER (role = 'assistant') AS n_assistant,
  count(*) FILTER (role = 'system') AS n_system,
  count(*) FILTER (role = 'tool') AS n_tool,
  count(*) FILTER (role = 'other') AS n_other
FROM ({_WIN}) GROUP BY conv_id, window_start
"""

def _sql_gram_div(k: int, alias: str) -> str:
    return f"""
, g{k} AS (SELECT conv_id, window_start, substr(translate(text, 'abcdefghijklmnopqrstuvwxyz', 'ABCDEFGHIJKLMNOPQRSTUVWXYZ'), i, {k}) kg
       FROM w, LATERAL (SELECT unnest(generate_series(1, length(text)-{k - 1})) AS i))
, c{k} AS (SELECT conv_id, window_start, kg, count(*)::DOUBLE c FROM g{k} GROUP BY 1,2,3)
, t{k} AS (SELECT conv_id, window_start, sum(c) s FROM c{k} GROUP BY 1,2)
, d{k} AS (SELECT c{k}.conv_id, c{k}.window_start, -sum((c/s)*log2(c/s)) {alias}
       FROM c{k} JOIN t{k} USING (conv_id, window_start) GROUP BY 1,2)
"""

SQL_TUMBLING_WINDOW_STATS = f"""
WITH w AS ({_WIN})
, base AS (
  SELECT conv_id, window_start, count(*) AS n_turns,
    sum(length(text))::BIGINT AS n_chars,
    count(*) FILTER (role='user') a, count(*) FILTER (role='assistant') c,
    count(*) FILTER (role='system') g, count(*) FILTER (role='tool') t,
    sum((length(text) - length(replace(text, '"k', 'k')))) AS big_cnt
  FROM w GROUP BY 1,2)
, re AS (
  SELECT conv_id, window_start, -sum(p * log2(p)) role_entropy FROM (
    SELECT conv_id, window_start,
      count(*)::DOUBLE / sum(count(*)) OVER (PARTITION BY conv_id, window_start) p
    FROM w GROUP BY conv_id, window_start, role) GROUP BY 1,2)
, ch AS (SELECT conv_id, window_start, substr(translate(text, 'abcdefghijklmnopqrstuvwxyz', 'ABCDEFGHIJKLMNOPQRSTUVWXYZ'), i, 1) ch
      FROM w, LATERAL (SELECT unnest(generate_series(1, length(text))) AS i))
, cc AS (SELECT conv_id, window_start, ch, count(*)::DOUBLE c FROM ch GROUP BY 1,2,3)
, ct AS (SELECT conv_id, window_start, sum(c) s FROM cc GROUP BY 1,2)
, ce AS (SELECT cc.conv_id, cc.window_start, -sum((c/s)*log2(c/s)) char_entropy
      FROM cc JOIN ct USING (conv_id, window_start) GROUP BY 1,2)
{_sql_gram_div(2, "bigram_diversity")}
{_sql_gram_div(3, "trigram_diversity")}
{_sql_gram_div(4, "quadgram_diversity")}
SELECT base.conv_id, base.window_start, n_turns, n_chars,
  round(CASE WHEN g+c+a+t = 0 THEN -1.0 ELSE (g+c)::DOUBLE/(g+c+a+t) END, 6) + 0.0 AS sys_asst_share,
  round(role_entropy, 6) + 0.0 AS role_entropy,
  round(coalesce(char_entropy, 0.0), 6) + 0.0 AS char_entropy,
  round(coalesce(bigram_diversity, 0.0), 6) + 0.0 AS bigram_diversity,
  round(coalesce(trigram_diversity, 0.0), 6) + 0.0 AS trigram_diversity,
  round(coalesce(quadgram_diversity, 0.0), 6) + 0.0 AS quadgram_diversity,
  round(big_cnt::DOUBLE / n_chars, 6) + 0.0 AS bigram_rate
FROM base
JOIN re USING (conv_id, window_start)
LEFT JOIN ce USING (conv_id, window_start)
LEFT JOIN d2 USING (conv_id, window_start)
LEFT JOIN d3 USING (conv_id, window_start)
LEFT JOIN d4 USING (conv_id, window_start)
"""

SQL_SLIDING_ROLE_COUNTS = f"""
SELECT conv_id,
  make_timestamp(((epoch_us(ts) // {STEP_US}) - k) * {STEP_US}) AS window_start,
  count(*) AS n_turns,
  count(*) FILTER (role='user') AS n_user,
  count(*) FILTER (role='other') AS n_other
FROM ({_T}) CROSS JOIN (SELECT unnest(generate_series(0, {SIZE_US // STEP_US - 1})) AS k)
WHERE ((epoch_us(ts) // {STEP_US}) - k) >= 0
GROUP BY 1, 2
"""

SQL_SESSION_WINDOWS = f"""
WITH t AS ({_T}),
x AS (SELECT conv_id, ts,
  CASE WHEN lag(ts) OVER w IS NULL
            OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {SESSION_GAP_US}
       THEN 1 ELSE 0 END AS brk
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_uid)),
s AS (SELECT conv_id, ts,
  sum(brk) OVER (PARTITION BY conv_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sess
  FROM x)
SELECT conv_id, min(ts) AS session_start, max(ts) AS session_end,
  count(*) AS n_turns
FROM s GROUP BY conv_id, sess
"""

SQL_WINDOW_JOIN_BACK = f"""
WITH w AS ({_WIN}),
s AS (SELECT conv_id, window_start, count(*) AS w_n_turns FROM w GROUP BY 1,2),
re AS (SELECT conv_id, window_start, round(-sum(p*log2(p)), 6) + 0.0 AS w_role_entropy FROM (
  SELECT conv_id, window_start,
    count(*)::DOUBLE / sum(count(*)) OVER (PARTITION BY conv_id, window_start) p
  FROM w GROUP BY conv_id, window_start, role) GROUP BY 1,2)
SELECT w.conv_id, w.turn_uid, w.window_start, s.w_n_turns, re.w_role_entropy
FROM w JOIN s USING (conv_id, window_start) JOIN re USING (conv_id, window_start)
"""

SQL_TUMBLING_CHAR_ENTROPY = f"""
WITH w AS ({_WIN})
, ch AS (SELECT conv_id, window_start, substr(translate(text, 'abcdefghijklmnopqrstuvwxyz', 'ABCDEFGHIJKLMNOPQRSTUVWXYZ'), i, 1) ch
      FROM w, LATERAL (SELECT unnest(generate_series(1, length(text))) AS i))
, cc AS (SELECT conv_id, window_start, ch, count(*)::DOUBLE c FROM ch GROUP BY 1,2,3)
, ct AS (SELECT conv_id, window_start, sum(c) s FROM cc GROUP BY 1,2)
, ce AS (SELECT cc.conv_id, cc.window_start, -sum((c/s)*log2(c/s)) char_entropy
      FROM cc JOIN ct USING (conv_id, window_start) GROUP BY 1,2)
, base AS (SELECT conv_id, window_start, sum(length(text))::BIGINT n_chars FROM w GROUP BY 1,2)
SELECT base.conv_id, base.window_start, n_chars,
  round(coalesce(char_entropy, 0.0), 6) + 0.0 AS char_entropy
FROM base LEFT JOIN ce USING (conv_id, window_start)
"""

DUP_GRAM_L = 40

SQL_EXACT_DEDUP_DOCS = f"""
SELECT 'doc' AS method, CAST(min(doc_id) AS VARCHAR) AS key,
       count(*) AS n
FROM documents GROUP BY text
UNION ALL
SELECT 'span' AS method, gram AS key, count(DISTINCT doc_id) AS n
FROM (SELECT d.doc_id, substr(d.text, t.i::INT, {DUP_GRAM_L}) AS gram
      FROM documents d
      JOIN generate_series(1, 65536) AS t(i)
        ON t.i <= length(d.text) - {DUP_GRAM_L - 1})
GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
"""

SQL_TOKEN_COUNT_BY_LANG = """
SELECT lang, count(*) AS n_docs,
  sum(len(regexp_extract_all(text, '[A-Za-z0-9_]+')))::BIGINT AS total_tokens,
  round(sum(len(regexp_extract_all(text, '[A-Za-z0-9_]+')))::DOUBLE / count(*), 6) AS avg_tokens
FROM documents GROUP BY lang
"""

_STOP_SQL = "('the','and','of','a','to','in','is','it')"

SQL_QUALITY_SCORE = f"""
WITH t AS (
  SELECT doc_id,
    len(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS n_tokens,
    len(list_filter(regexp_extract_all(lower(text), '[a-z0-9_]+'),
                    x -> x IN {_STOP_SQL})) AS n_stop,
    len(regexp_extract_all(text, '[^A-Za-z0-9_ \t\n]')) AS n_punct,
    length(text) AS n_chars
  FROM documents)
SELECT doc_id, n_tokens, n_stop, n_punct, n_chars,
  round(CASE WHEN n_tokens = 0 THEN 0.0 ELSE n_stop::DOUBLE / n_tokens END, 6) AS stop_ratio,
  round(CASE WHEN n_chars = 0 THEN 0.0 ELSE n_punct::DOUBLE / n_chars END, 6) AS punct_ratio,
  CASE WHEN n_tokens >= 10
        AND (CASE WHEN n_tokens = 0 THEN 0.0 ELSE n_stop::DOUBLE/n_tokens END) >= 0.05
        AND (CASE WHEN n_chars = 0 THEN 0.0 ELSE n_punct::DOUBLE/n_chars END) <= 0.2
       THEN 1 ELSE 0 END::BIGINT AS passes
FROM t
"""

SQL_ASOF_JOIN_SESSIONS = f"""
WITH t AS ({_T}),
x AS (SELECT conv_id, ts, turn_uid,
  CASE WHEN lag(ts) OVER w IS NULL
            OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {SESSION_GAP_US}
       THEN 1 ELSE 0 END AS brk
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_uid)),
s AS (SELECT conv_id, ts, turn_uid,
  sum(brk) OVER (PARTITION BY conv_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sess
  FROM x),
sess AS (SELECT conv_id, sess, min(ts) AS session_start,
           count(*) AS s_n_turns FROM s GROUP BY 1, 2)
SELECT s.conv_id, s.turn_uid, sess.session_start, sess.s_n_turns
FROM s JOIN sess USING (conv_id, sess)
"""

SQL_RANGE_JOIN_SESSIONS = f"""
WITH t AS ({_T}),
x AS (SELECT conv_id, ts, turn_uid,
  CASE WHEN lag(ts) OVER w IS NULL
            OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {SESSION_GAP_US}
       THEN 1 ELSE 0 END AS brk
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_uid)),
s AS (SELECT conv_id, ts, turn_uid,
  sum(brk) OVER (PARTITION BY conv_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sess
  FROM x),
sess AS (SELECT conv_id, sess, min(ts) AS session_start,
           max(ts) AS session_end FROM s GROUP BY 1, 2)
SELECT s.conv_id, s.turn_uid, sess.session_start, sess.session_end
FROM s JOIN sess USING (conv_id, sess)
"""

SEMI_KEYS = ["1", "2", "3", "42", "77"]

_KEYS_SQL = ", ".join(f"'{k}'" for k in SEMI_KEYS)

SQL_SEMI_JOIN_CONVS = f"""
SELECT conv_id, turn_uid FROM ({_T}) WHERE conv_id IN ({_KEYS_SQL})
"""

SQL_ANTI_JOIN_CONVS = f"""
SELECT conv_id, turn_uid FROM ({_T}) WHERE conv_id NOT IN ({_KEYS_SQL})
"""

SQL_CURATION_PIPELINE = f"""
WITH t AS (
  SELECT doc_id, lang, text,
    len(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS n_tokens,
    len(list_filter(regexp_extract_all(lower(text), '[a-z0-9_]+'),
                    x -> x IN {_STOP_SQL})) AS n_stop,
    len(regexp_extract_all(text, '[^A-Za-z0-9_ \t\n]')) AS n_punct,
    length(text) AS n_chars
  FROM documents),
p AS (SELECT *, CASE WHEN n_tokens >= 10
        AND (CASE WHEN n_tokens = 0 THEN 0.0 ELSE n_stop::DOUBLE/n_tokens END) >= 0.05
        AND (CASE WHEN n_chars = 0 THEN 0.0 ELSE n_punct::DOUBLE/n_chars END) <= 0.2
       THEN 1 ELSE 0 END AS passes FROM t),
k AS (SELECT * FROM p WHERE passes = 1
      QUALIFY row_number() OVER (PARTITION BY text ORDER BY doc_id) = 1)
SELECT d.lang, d.n_docs, q.n_quality,
  coalesce(u.n_unique, 0)::BIGINT AS n_unique,
  coalesce(u.unique_tokens, 0)::BIGINT AS unique_tokens
FROM (SELECT lang, count(*) AS n_docs FROM p GROUP BY 1) d
JOIN (SELECT lang, sum(passes)::BIGINT AS n_quality FROM p GROUP BY 1) q USING (lang)
LEFT JOIN (SELECT lang, count(*) AS n_unique,
             sum(n_tokens) AS unique_tokens FROM k GROUP BY 1) u USING (lang)
"""

SQL_MULTIMODAL_META = """
SELECT doc_id AS media_id, octet_length(encode(text)) AS n_bytes,
  sha256(text) AS sha256
FROM documents
"""

FRAME_BYTES = 64

FRAME_EVERY = 4

SQL_MEDIA_FRAME_SAMPLE = f"""
WITH f AS (SELECT doc_id, i,
             substr(text, (i-1)*{FRAME_BYTES}+1, {FRAME_BYTES}) AS frame
           FROM documents,
           LATERAL (SELECT unnest(generate_series(
               1, (length(text)+{FRAME_BYTES - 1})//{FRAME_BYTES})) AS i))
SELECT doc_id AS media_id, (i-1)::BIGINT AS frame_idx,
  length(frame)::BIGINT AS n_bytes, md5(frame) AS frame_md5
FROM f WHERE (i-1) % {FRAME_EVERY} = 0
ORDER BY media_id, frame_idx
"""

RESIZE_W, RESIZE_H = 32, 32

SQL_MEDIA_RESIZE = f"""
SELECT doc_id AS media_id,
  {RESIZE_W}::BIGINT AS out_width, {RESIZE_H}::BIGINT AS out_height,
  md5(text || '|{RESIZE_W}x{RESIZE_H}') AS resized_md5
FROM documents ORDER BY media_id
"""

BMP_OUT = 5  # decode-query output dims (doesn't divide src evenly)

SQL_MEDIA_DECODE = f"""
WITH d AS (SELECT doc_id, 8 + doc_id % 9 AS w, 8 + doc_id % 7 AS h
           FROM documents),
px AS (SELECT doc_id, w, h,
         (doc_id*31 + ((j*w)//{BMP_OUT})*7 + ((i*h)//{BMP_OUT})*13) % 256 AS r
       FROM d,
         (SELECT unnest(generate_series(0, {BMP_OUT - 1})) AS i),
         (SELECT unnest(generate_series(0, {BMP_OUT - 1})) AS j))
SELECT doc_id AS media_id, h::BIGINT AS src_height, w::BIGINT AS src_width,
  sum(3*r + 5*((r+85) % 256) + 7*((r+170) % 256))::BIGINT AS pixel_checksum
FROM px GROUP BY 1, 2, 3
"""

_QIDS = ", ".join(str(i) for i in TOPK_QUERY_IDS)

SQL_EMBEDDING_TOPK = f"""
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
           WHERE vec_id IN ({_QIDS})),
s AS (SELECT q.qid AS query_id, e.vec_id,
        list_cosine_similarity(e.embedding, q.qe) AS c
      FROM embeddings e CROSS JOIN q WHERE e.vec_id <> q.qid)
SELECT query_id, rank, vec_id FROM (
  SELECT query_id, vec_id,
    row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rank
  FROM s) WHERE rank <= 10
"""

SQL_SALTED_WINDOW_COUNTS = f"""
WITH w AS ({_WIN}),
base AS (
  SELECT conv_id, window_start, count(*) AS n_turns,
    count(*) FILTER (role = 'user') AS n_user,
    count(*) FILTER (role = 'assistant') AS n_assistant,
    count(*) FILTER (role = 'system') AS n_system,
    count(*) FILTER (role = 'tool') AS n_tool,
    count(*) FILTER (role = 'other') AS n_other
  FROM w GROUP BY 1, 2),
re AS (
  SELECT conv_id, window_start, round(-sum(p * log2(p)), 6) + 0.0 AS role_entropy
  FROM (SELECT conv_id, window_start,
          count(*)::DOUBLE / sum(count(*)) OVER (PARTITION BY conv_id, window_start) p
        FROM w GROUP BY conv_id, window_start, role) GROUP BY 1, 2)
SELECT base.*, re.role_entropy FROM base JOIN re USING (conv_id, window_start)
"""

SQL_TURN_WINDOW_COUNTS = f"""
WITH t AS ({_T}),
r AS (SELECT conv_id, role,
        row_number() OVER (PARTITION BY conv_id ORDER BY ts, turn_uid) - 1 AS rk,
        count(*) OVER (PARTITION BY conv_id) AS conv_len
      FROM t)
SELECT conv_id, (rk // 20) * 20 AS win_start,
  least((rk // 20) * 20 + 20, max(conv_len)) AS win_end,
  count(*) AS n_turns,
  count(*) FILTER (role = 'user') AS n_user,
  count(*) FILTER (role = 'assistant') AS n_assistant,
  count(*) FILTER (role = 'system') AS n_system,
  count(*) FILTER (role = 'tool') AS n_tool,
  count(*) FILTER (role = 'other') AS n_other
FROM r GROUP BY conv_id, rk // 20
"""

SQL_STATEFUL_CUSTOM_AGGS = f"""
WITH t AS ({_T})
SELECT conv_id,
  make_timestamp((epoch_us(ts) // {SIZE_US}) * {SIZE_US}) AS window_start,
  count(*) AS n_turns,
  sum(length(coalesce(text, '')))::DOUBLE AS total_text_chars,
  count(DISTINCT CASE WHEN tool IS NOT NULL AND tool <> '' THEN tool
                 END)::DOUBLE AS distinct_tools
FROM t GROUP BY 1, 2
"""

SQL_SESSION_WINDOW_STATS = f"""
WITH t AS ({_T}),
x AS (SELECT conv_id, ts, turn_uid, role, text,
  CASE WHEN lag(ts) OVER w IS NULL
            OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > {SESSION_GAP_US}
       THEN 1 ELSE 0 END AS brk
  FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_uid)),
s AS (SELECT conv_id, ts, role, text,
  sum(brk) OVER (PARTITION BY conv_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sess
  FROM x),
base AS (SELECT conv_id, sess, min(ts) AS session_start,
    max(ts) AS session_end, count(*) AS n_turns,
    sum(length(text))::BIGINT AS n_chars
  FROM s GROUP BY 1, 2),
re AS (SELECT conv_id, sess, -sum(p*log2(p)) AS role_entropy FROM (
    SELECT conv_id, sess,
      count(*)::DOUBLE / sum(count(*)) OVER (PARTITION BY conv_id, sess) p
    FROM s GROUP BY conv_id, sess, role) GROUP BY 1, 2),
ch AS (SELECT conv_id, sess, substr(translate(text, 'abcdefghijklmnopqrstuvwxyz', 'ABCDEFGHIJKLMNOPQRSTUVWXYZ'), i, 1) AS c2
    FROM s, LATERAL (SELECT unnest(generate_series(1, length(text))) AS i)),
cc AS (SELECT conv_id, sess, c2, count(*)::DOUBLE c FROM ch GROUP BY 1,2,3),
ct AS (SELECT conv_id, sess, sum(c) AS tot FROM cc GROUP BY 1,2),
ce AS (SELECT cc.conv_id, cc.sess, -sum((c/tot)*log2(c/tot)) AS char_entropy
    FROM cc JOIN ct USING (conv_id, sess) GROUP BY 1,2)
SELECT base.conv_id, session_start, session_end, n_turns, n_chars,
  round(role_entropy, 6) + 0.0 AS role_entropy,
  round(coalesce(char_entropy, 0.0), 6) + 0.0 AS char_entropy
FROM base JOIN re USING (conv_id, sess)
LEFT JOIN ce USING (conv_id, sess)
"""

def _lang_id_sql() -> str:
    from ..stages.text_analysis import LANG_PROFILES
    scores = []
    for lang in sorted(LANG_PROFILES):
        words = ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))
        scores.append(f"len(list_filter(toks, x -> x IN ({words}))) "
                      f"AS s_{lang}")
    langs = sorted(LANG_PROFILES)
    g = "greatest(" + ", ".join(f"s_{l}" for l in langs) + ")"
    # first alphabetical language achieving the max (LangId's strict->
    # update loop over sorted langs); all-zero -> 'und'
    cases = " ".join(f"WHEN s_{l} = m THEN '{l}'" for l in langs)
    return f"""
WITH t AS (SELECT doc_id, lang,
             regexp_extract_all(lower(text), '[a-z0-9_]+') AS toks
           FROM documents),
s AS (SELECT doc_id, lang, {", ".join(scores)} FROM t),
m AS (SELECT *, {g} AS m FROM s)
SELECT doc_id, lang,
  CASE WHEN m = 0 THEN 'und' {cases} END AS pred_lang
FROM m
"""

SQL_LANG_ID = None     # built lazily (needs LANG_PROFILES import)

NGRAM_PAIR_IDS = [(2 * i, 2 * i + 1) for i in range(10)]

NGRAM_SHINGLE_K = 5

def _ngram_jaccard_sql() -> str:
    vals = ", ".join(f"({a}, {b})" for a, b in NGRAM_PAIR_IDS)
    k = NGRAM_SHINGLE_K
    return f"""
WITH p AS (SELECT * FROM (VALUES {vals}) AS v(doc_a, doc_b)),
j AS (SELECT p.doc_a, p.doc_b,
        coalesce(a.text, '') AS ta, coalesce(b.text, '') AS tb
      FROM p LEFT JOIN documents a ON a.doc_id = p.doc_a
             LEFT JOIN documents b ON b.doc_id = p.doc_b),
ga AS (SELECT doc_a, doc_b, substr(lower(ta), i, {k}) AS g
       FROM j, LATERAL (SELECT unnest(generate_series(1, length(ta) - {k - 1})) AS i)
       GROUP BY 1, 2, 3),
gb AS (SELECT doc_a, doc_b, substr(lower(tb), i, {k}) AS g
       FROM j, LATERAL (SELECT unnest(generate_series(1, length(tb) - {k - 1})) AS i)
       GROUP BY 1, 2, 3),
c AS (SELECT j.doc_a, j.doc_b,
        (SELECT count(*) FROM ga WHERE ga.doc_a = j.doc_a AND ga.doc_b = j.doc_b) AS na,
        (SELECT count(*) FROM gb WHERE gb.doc_a = j.doc_a AND gb.doc_b = j.doc_b) AS nb,
        (SELECT count(*) FROM ga JOIN gb USING (doc_a, doc_b, g)
          WHERE ga.doc_a = j.doc_a AND ga.doc_b = j.doc_b) AS ni
      FROM j)
SELECT doc_a::BIGINT AS doc_a, doc_b::BIGINT AS doc_b,
  round(CASE WHEN na + nb - ni > 0 THEN ni::DOUBLE / (na + nb - ni)
             ELSE 0.0 END, 6) + 0.0 AS jaccard
FROM c WHERE na + nb > 0
"""

def _hex_fold(col: str, ndigits: int) -> str:
    """Nested SQL expression folding the first ``ndigits`` hex digits of
    column ``col`` into a signed BIGINT (60 bits max stays exact)."""
    expr = f"(strpos('0123456789abcdef', substr({col}, 1, 1)) - 1)::BIGINT"
    for j in range(2, ndigits + 1):
        expr = (f"(({expr}) * 16 + strpos('0123456789abcdef', "
                f"substr({col}, {j}, 1)) - 1)")
    return expr

def _stream_metrics_sql() -> str:
    """stream_metrics oracle: the engine partitions by the md5-prefix
    bucket (stable_bucket_of); replay is (ts, turn_uid)-sorted per
    partition, so late/dup drops are zero and windows_emitted is the
    count of distinct (conv_id, tumbling window) per partition."""
    return f"""
WITH t AS ({_T}),
p AS (SELECT conv_id, ts, md5(conv_id) AS h FROM t),
b AS (SELECT conv_id, ts, ({_hex_fold("h", 15)}) % 16 AS partition FROM p),
w AS (SELECT partition, conv_id, (epoch_us(ts) // {SIZE_US}) AS wk FROM b)
SELECT partition::BIGINT AS partition, count(*) AS rows_in,
  0::BIGINT AS late_dropped, 0::BIGINT AS dup_dropped,
  count(DISTINCT conv_id || ':' || wk::VARCHAR)::BIGINT AS windows_emitted
FROM w GROUP BY 1
"""

def _simhash_sql() -> str:
    """SimHash reproduced in SQL: md5 per token, fold the first 15 hex
    digits to a 60-bit BIGINT, per-bit +/-1 vote sums, rebuild the
    sign-bit word. Exactly the kernel's definition (dedup.py)."""
    from ..stages.dedup import SIMHASH_BITS
    expr = "(strpos('0123456789abcdef', substr(h, 1, 1)) - 1)::BIGINT"
    for j in range(2, 16):
        expr = (f"(({expr}) * 16 + strpos('0123456789abcdef', "
                f"substr(h, {j}, 1)) - 1)")
    return f"""
WITH tok AS (SELECT doc_id, unnest(regexp_extract_all(lower(text),
               '[a-z0-9_]+')) AS t FROM documents),
h AS (SELECT doc_id, md5(t) AS h FROM tok),
hv AS (SELECT doc_id, {expr} AS hv FROM h),
b AS (SELECT doc_id, bit,
        sum(CASE WHEN (hv >> bit) & 1 = 1 THEN 1 ELSE -1 END) AS v
      FROM hv, LATERAL (SELECT unnest(generate_series(0, {SIMHASH_BITS - 1})) AS bit)
      GROUP BY 1, 2),
fp AS (SELECT doc_id,
         sum(CASE WHEN v > 0 THEN (1::BIGINT << bit) ELSE 0 END) AS simhash
       FROM b GROUP BY doc_id)
SELECT d.doc_id, coalesce(fp.simhash, 0)::BIGINT AS simhash
FROM documents d LEFT JOIN fp USING (doc_id)
"""

def _fingerprint_sql() -> str:
    """Rabin-Karp fingerprint reproduced in SQL: per-position rolling
    8-gram polynomial hash in HUGEINT (mod Fingerprinter.M — the largest
    prime below 2^41 — each step, exactly the kernel's order of
    operations), folded with list_reduce in position
    order; min_gram_hash = min over positions. ASCII corpus: ascii(char)
    == utf-8 byte."""
    from ..stages.text_analysis import Fingerprinter
    B, M, k = Fingerprinter.B, Fingerprinter.M, 8
    expr = "ascii(substr(text, i, 1))::HUGEINT"
    for j in range(1, k):
        expr = (f"(({expr}) * {B} + ascii(substr(text, i + {j}, 1))) "
                f"% {M}")
    return f"""
WITH t AS (SELECT doc_id, text FROM documents),
r AS (SELECT t.doc_id, i, {expr} AS rh
      FROM t, LATERAL (SELECT unnest(generate_series(1, length(text) - {k - 1})) AS i)),
agg AS (SELECT doc_id,
          list_reduce(list(rh ORDER BY i), (a, b) -> (a * {B} + b) % {M}) AS fp,
          min(rh) AS mg
        FROM r GROUP BY doc_id)
SELECT t.doc_id, coalesce(agg.fp, 0)::BIGINT AS fingerprint,
       coalesce(agg.mg, 0)::BIGINT AS min_gram_hash
FROM t LEFT JOIN agg USING (doc_id)
"""

SQL_MULTIMODAL_FEATURES = """
WITH t AS (SELECT doc_id AS media_id, sha256(text) AS hx
           FROM documents),
b AS (SELECT media_id,
        (strpos('0123456789abcdef', substr(hx, 1, 1)) - 1) * 16
          + strpos('0123456789abcdef', substr(hx, 2, 1)) - 1 AS b0,
        (strpos('0123456789abcdef', substr(hx, 3, 1)) - 1) * 16
          + strpos('0123456789abcdef', substr(hx, 4, 1)) - 1 AS b1
      FROM t)
SELECT media_id, (1 + b0 % 64)::BIGINT AS height,
       (1 + b1 % 64)::BIGINT AS width
FROM b
"""

MINHASH_SHINGLE_K = 7     # ONE shingle space for candidates AND verify

MINHASH_ORACLE_SQL = f"""
WITH g AS (SELECT doc_id, substr(lower(text), i, {MINHASH_SHINGLE_K}) AS g
           FROM documents,
           LATERAL (SELECT unnest(generate_series(
               1, length(text)-{MINHASH_SHINGLE_K - 1})) AS i)
           GROUP BY 1, 2),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY 1),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
          FROM g a JOIN g b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT doc_a::BIGINT AS doc_a, doc_b::BIGINT AS doc_b,
  round(ni::DOUBLE / (sa.n + sb.n - ni), 6) + 0.0 AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = doc_a
           JOIN sz sb ON sb.doc_id = doc_b
WHERE ni::DOUBLE / (sa.n + sb.n - ni) >= 0.5
ORDER BY doc_a, doc_b
"""

SQL_DEDUP_CLUSTERS = f"""
WITH RECURSIVE g AS (SELECT doc_id, substr(lower(text), i, {MINHASH_SHINGLE_K}) AS g
           FROM documents,
           LATERAL (SELECT unnest(generate_series(
               1, length(text)-{MINHASH_SHINGLE_K - 1})) AS i)
           GROUP BY 1, 2),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY 1),
inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
          FROM g a JOIN g b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2),
p AS (SELECT doc_a, doc_b FROM inter
      JOIN sz sa ON sa.doc_id = doc_a JOIN sz sb ON sb.doc_id = doc_b
      WHERE ni::DOUBLE / (sa.n + sb.n - ni) >= 0.5),
und AS (SELECT doc_a AS a, doc_b AS b FROM p
        UNION SELECT doc_b, doc_a FROM p),
reach AS (SELECT a AS node, b AS r FROM und
          UNION SELECT reach.node, u.b FROM reach
                JOIN und u ON reach.r = u.a AND u.b <> reach.node),
cc AS (SELECT node, least(node, min(r)) AS cluster_id
       FROM reach GROUP BY node)
SELECT d.doc_id, coalesce(cc.cluster_id, d.doc_id)::BIGINT AS cluster_id,
  (CASE WHEN coalesce(cc.cluster_id, d.doc_id) = d.doc_id
        THEN 1 ELSE 0 END)::BIGINT AS keep
FROM documents d LEFT JOIN cc ON cc.node = d.doc_id
ORDER BY d.doc_id
"""

PLANT_OFFSET = 100_000

NEAR_DUP_THRESHOLD = 0.9

SQL_EMBEDDING_NEAR_DUPS = f"""
WITH c AS (SELECT vec_id, embedding FROM embeddings
           UNION ALL
           SELECT vec_id + {PLANT_OFFSET}, embedding FROM embeddings
           WHERE vec_id % 10 = 0)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
FROM c a JOIN c b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding)
      >= {NEAR_DUP_THRESHOLD}
ORDER BY vec_a, vec_b
"""

SQL_REPETITION_FILTER = """
WITH sp AS (SELECT doc_id, string_split(text, ' ') AS s FROM documents),
w AS (SELECT doc_id, s[i] AS w, len(s) AS nt FROM sp,
      LATERAL (SELECT unnest(generate_series(1, len(s))) AS i)),
agg AS (SELECT doc_id, any_value(nt) AS total, count(DISTINCT w) AS uniq
        FROM w GROUP BY doc_id),
bg AS (SELECT doc_id, s[i] || ' ' || s[i+1] AS g FROM sp,
       LATERAL (SELECT unnest(generate_series(1, len(s)-1)) AS i)
       WHERE len(s) >= 2),
bgc AS (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY 1, 2),
bgt AS (SELECT doc_id, max(c)::DOUBLE / sum(c) AS topf FROM bgc GROUP BY 1)
SELECT a.doc_id,
  round(1.0 - uniq::DOUBLE / total, 6) + 0.0 AS dup_word_frac,
  round(coalesce(topf, 0.0), 6) + 0.0 AS top_bigram_frac
FROM agg a LEFT JOIN bgt USING (doc_id) ORDER BY doc_id
"""

DECONTAM_N = 5

DECONTAM_EVAL_MOD = 50

SQL_DECONTAMINATE = f"""
WITH sp AS (SELECT doc_id, string_split(text, ' ') AS s FROM documents),
g AS (SELECT doc_id,
        s[i] || ' ' || s[i+1] || ' ' || s[i+2] || ' ' || s[i+3]
             || ' ' || s[i+4] AS g
      FROM sp,
      LATERAL (SELECT unnest(generate_series(1, len(s)-{DECONTAM_N - 1}))
               AS i)
      WHERE len(s) >= {DECONTAM_N}),
ev AS (SELECT DISTINCT g FROM g WHERE doc_id % {DECONTAM_EVAL_MOD} = 0),
hit AS (SELECT DISTINCT doc_id FROM g
        WHERE doc_id % {DECONTAM_EVAL_MOD} != 0
          AND g IN (SELECT g FROM ev))
SELECT d.doc_id,
  (CASE WHEN d.doc_id IN (SELECT doc_id FROM hit) THEN 1 ELSE 0 END)::BIGINT
    AS contaminated
FROM documents d WHERE d.doc_id % {DECONTAM_EVAL_MOD} != 0
ORDER BY doc_id
"""

SQL_TUMBLING_CTW = f"""
WITH RECURSIVE
w AS ({_WIN}),
base AS (SELECT conv_id, window_start, count(*) AS n_turns,
    count(*) FILTER (role = 'user') AS nu,
    count(*) FILTER (role = 'assistant') AS na,
    count(*) FILTER (role = 'system') AS ns,
    count(*) FILTER (role = 'tool') AS nt,
    sum(length(text))::BIGINT AS n_chars
  FROM w GROUP BY 1, 2),
plant AS (SELECT conv_id, window_start, n_turns,
    1 + (nu + na + ns + nt) % 96 AS lc,
    nu % 48 AS fa, na % 48 AS fb,
    1 + n_chars % 96 AS lk, 1 + n_chars % 80 AS lt
  FROM base),
seq AS (SELECT unnest(generate_series(0, 99)) AS i),
ktc AS (SELECT i + 1 AS n,
               SUM(LN((i + 0.5) / (i + 2.0))) OVER (ORDER BY i) AS lnp
        FROM seq),
kt0 AS (SELECT 0 AS n, CAST(0.0 AS DOUBLE) AS lnp
        UNION ALL SELECT n, lnp FROM ktc),
lens AS (SELECT unnest(generate_series(1, 96)) AS L),
cr AS (
  SELECT lens.L AS L, least(lens.L - 1, 6) AS d, kt0.lnp AS lw
  FROM lens JOIN kt0 ON kt0.n = lens.L - least(lens.L - 1, 6)
  UNION ALL
  SELECT cr.L, cr.d - 1, LN(0.5 * EXP(kt0.lnp) + 0.5 * EXP(cr.lw))
  FROM cr JOIN kt0 ON kt0.n = cr.L - (cr.d - 1)
  WHERE cr.d > 0
),
ctwc AS (SELECT L, -lw / LN(2) / L AS bpb FROM cr WHERE d = 0),
pairs AS (SELECT a.a AS a, b.b AS b
          FROM (SELECT unnest(generate_series(0, 47)) AS a) a,
               (SELECT unnest(generate_series(0, 47)) AS b) b
          WHERE a.a + b.b > 0),
fr AS (
  SELECT p.a AS a, p.b AS b,
         CASE WHEN p.b > 0 THEN least(p.b - 1, 6)
              ELSE least(p.a - 1, 6) END AS d,
         kt0.lnp AS lw
  FROM pairs p JOIN kt0 ON kt0.n =
       greatest(p.a - (CASE WHEN p.b > 0 THEN least(p.b - 1, 6)
                            ELSE least(p.a - 1, 6) END), 0)
     + greatest(p.b - (CASE WHEN p.b > 0 THEN least(p.b - 1, 6)
                            ELSE least(p.a - 1, 6) END), 0)
  UNION ALL
  SELECT fr.a, fr.b, fr.d - 1, LN(0.5 * EXP(kt0.lnp) + 0.5 * EXP(fr.lw))
  FROM fr JOIN kt0
    ON kt0.n = greatest(fr.a - (fr.d - 1), 0)
             + greatest(fr.b - (fr.d - 1), 0)
  WHERE fr.d > 0
),
ctwf AS (SELECT a, b, -lw / LN(2) / (a + b) AS bpb FROM fr WHERE d = 0
         UNION ALL SELECT 0, 0, CAST(0.0 AS DOUBLE)),
ktb AS (SELECT n AS L, -lnp / LN(2) / n AS bpb FROM ktc)
SELECT p.conv_id, p.window_start, p.n_turns,
  p.lc AS plant_const_len, p.fa AS plant_flush_a, p.fb AS plant_flush_b,
  p.lk AS plant_kt0_len, p.lt AS plant_text_len,
  round(cc.bpb, 6) + 0.0 AS ctw_const_bpb,
  round(cf.bpb, 6) + 0.0 AS ctw_flush_bpb,
  round(kb.bpb, 6) + 0.0 AS kt0_const_bpb,
  round(ct.bpb, 6) + 0.0 AS ctw_textplant_bpb
FROM plant p
JOIN ctwc cc ON cc.L = p.lc
JOIN ctwf cf ON cf.a = p.fa AND cf.b = p.fb
JOIN ktb kb ON kb.L = p.lk
JOIN ctwc ct ON ct.L = p.lt
"""

SQL_TUMBLING_ROLE_KGRAM_LONG = f"""
WITH w AS ({_WIN}),
seq AS (SELECT conv_id, window_start,
         string_agg(CASE role WHEN 'user' THEN 'A' WHEN 'assistant' THEN 'C'
                    WHEN 'system' THEN 'G' WHEN 'tool' THEN 'T'
                    ELSE 'N' END, '' ORDER BY ts, turn_uid) AS s
        FROM w GROUP BY 1, 2),
g AS (SELECT conv_id, window_start, k, substr(s, i, k) AS kgram
      FROM seq, (SELECT unnest([2, 3, 4]) AS k) kk,
           LATERAL (SELECT unnest(generate_series(1, length(s) - k + 1)) AS i)
      WHERE length(s) >= k)
SELECT conv_id, window_start, k::BIGINT AS k, kgram, count(*)::BIGINT AS n
FROM g GROUP BY 1, 2, 3, 4
"""

HH_WORDS_K = 15

SQL_GROUPED_TOPK = """
WITH agg AS (
  SELECT event_type, user_id, count(*) AS n_rows, sum(value) AS sw
  FROM events GROUP BY 1, 2),
r AS (
  SELECT event_type, user_id, n_rows,
    round(sw, 6) + 0.0 AS sum_weight,
    row_number() OVER (PARTITION BY event_type
                       ORDER BY n_rows DESC, user_id) AS rank
  FROM agg)
SELECT event_type, user_id, n_rows, sum_weight, rank FROM r WHERE rank <= 5
"""

SQL_HH_WORDS = """
WITH w AS (SELECT unnest(string_split(lower(text), ' ')) AS term
           FROM documents),
c AS (SELECT term, count(*) AS n FROM w GROUP BY 1),
r AS (SELECT term, n,
        row_number() OVER (ORDER BY n DESC, term) AS rank FROM c)
SELECT '__corpus__' AS event_type, term AS user_id, n AS n_rows,
       0.0 AS sum_weight, rank
FROM r WHERE rank <= {k}
"""

SAMPLE_DEFAULT_PERMILLE = 120

SAMPLE_STRATA_PERMILLE = {"en": 50, "zh": 400}

SAMPLE_TOPK_K = 12

MIX_ALPHA = 0.5

MIX_TARGET_PERMILLE = 250

WEIGHTED_SAMPLE_K = 15

SQL_HASH_SAMPLE = f"""
WITH h AS (SELECT doc_id, lang, md5(CAST(doc_id AS VARCHAR)) AS h
           FROM documents),
s AS (SELECT doc_id, lang, ({_hex_fold("h", 15)}) % 1000 AS slot FROM h),
r AS (SELECT doc_id, lang, slot,
        row_number() OVER (PARTITION BY lang ORDER BY slot, doc_id) AS rn
      FROM s),
m AS (SELECT doc_id, lang, slot,
        CAST(least(1000, floor(
          {MIX_TARGET_PERMILLE} * (SELECT count(*) FROM documents)
          * pow(count(*) OVER (PARTITION BY lang), {MIX_ALPHA} - 1.0)
          / (SELECT sum(z) FROM (SELECT pow(count(*), {MIX_ALPHA}) AS z
                                 FROM documents GROUP BY lang))
          + 1e-9)) AS BIGINT) AS pm
      FROM s)
SELECT 'bernoulli' AS method, doc_id, lang FROM s
WHERE slot < CASE lang WHEN 'en' THEN {SAMPLE_STRATA_PERMILLE["en"]}
                       WHEN 'zh' THEN {SAMPLE_STRATA_PERMILLE["zh"]}
                       ELSE {SAMPLE_DEFAULT_PERMILLE} END
UNION ALL
SELECT 'topk' AS method, doc_id, lang FROM r WHERE rn <= {SAMPLE_TOPK_K}
UNION ALL
SELECT 'mixture' AS method, doc_id, lang FROM m WHERE slot < pm
UNION ALL
SELECT 'weighted' AS method, doc_id, lang FROM (
  SELECT doc_id, lang, row_number() OVER (PARTITION BY lang ORDER BY
           -ln((({_hex_fold("hw", 15)}) + 0.5) / {float(1 << 60)!r})
             / n_chars, doc_id) AS rn
  FROM (SELECT doc_id, lang, n_chars,
               md5(CAST(doc_id AS VARCHAR)) AS hw
        FROM documents WHERE n_chars > 0))
WHERE rn <= {WEIGHTED_SAMPLE_K}
"""

QUANTILE_QS = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]

SQL_EXACT_QUANTILES = "\nUNION ALL\n".join(
    f"SELECT {q}::DOUBLE AS q, quantile_disc(n_chars, {q})::BIGINT AS value "
    f"FROM documents" for q in QUANTILE_QS)

SQL_PII_REDACT = r"""
WITH planted AS (
  SELECT doc_id, text
    || CASE WHEN doc_id % 7 = 0 THEN ' contact user' || doc_id
            || '@example.com now' ELSE '' END
    || CASE WHEN doc_id % 11 = 0 THEN ' call 555-'
            || lpad(CAST((doc_id * 37) % 10000 AS VARCHAR), 4, '0')
            ELSE '' END
    || CASE WHEN doc_id % 13 = 0 THEN ' from 10.' || (doc_id % 256)
            || '.0.' || ((doc_id * 7) % 256) ELSE '' END AS text
  FROM documents),
e AS (SELECT doc_id,
  len(regexp_extract_all(text,
      '[A-Za-z0-9_.]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT AS n_email,
  regexp_replace(text, '[A-Za-z0-9_.]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                 '[EMAIL]', 'g') AS text FROM planted),
p AS (SELECT doc_id, n_email,
  len(regexp_extract_all(text, '555-\d{4}'))::BIGINT AS n_phone,
  regexp_replace(text, '555-\d{4}', '[PHONE]', 'g') AS text FROM e),
i AS (SELECT doc_id, n_email, n_phone,
  len(regexp_extract_all(text,
      '\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}'))::BIGINT AS n_ip,
  regexp_replace(text, '\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}',
                 '[IP]', 'g') AS text FROM p)
SELECT doc_id, n_email, n_phone, n_ip, text FROM i ORDER BY doc_id
"""

SQL_WINDOWED_DISTINCT = f"""
SELECT make_timestamp((epoch_us(ts) // {SIZE_US}) * {SIZE_US})
         AS window_start,
  count(*) AS n_events,
  count(DISTINCT user_id) AS n_users,
  round(sum(value), 6) + 0.0 AS sum_value
FROM events GROUP BY 1 ORDER BY 1
"""

SQL_LABEL_CENTROID_SIM = """
WITH u AS (
  SELECT label, generate_subscripts(embedding, 1) AS pos,
         unnest(embedding) AS x
  FROM embeddings),
c AS (SELECT label, pos, avg(x) AS m FROM u GROUP BY 1, 2),
cl AS (SELECT label, list(m ORDER BY pos) AS centroid FROM c GROUP BY 1)
SELECT a.label AS label_a, b.label AS label_b,
  round(list_cosine_similarity(a.centroid, b.centroid), 6) + 0.0 AS cos_sim
FROM cl a JOIN cl b ON a.label < b.label
ORDER BY 1, 2
"""

CEP_PATTERN = ["view", "click", "purchase"]

CEP_WITHIN_US = 48 * 3600 * 1_000_000

IJ_TYPES = ("purchase", "error")      # interval-join leg: l type, r type

IJ_WITHIN_US = 2 * 3600 * 1_000_000   # 0 <= r.ts - l.ts <= 2 h

SQL_CEP_SEQUENCE = f"""
WITH o AS (
  SELECT user_id, event_id, event_type, ts,
    lead(event_type, 1) OVER w AS t1,
    lead(event_type, 2) OVER w AS t2,
    lead(ts, 2)         OVER w AS ts2,
    lead(event_id, 2)   OVER w AS eid2
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT 'cep' AS kind, user_id, event_id AS start_event_id,
       eid2 AS end_event_id, ts AS start_ts
FROM o
WHERE event_type = '{CEP_PATTERN[0]}' AND t1 = '{CEP_PATTERN[1]}'
  AND t2 = '{CEP_PATTERN[2]}'
  AND epoch_us(ts2) - epoch_us(ts) <= {CEP_WITHIN_US}
UNION ALL
SELECT 'ij' AS kind, l.user_id, l.event_id AS start_event_id,
       r.event_id AS end_event_id, l.ts AS start_ts
FROM events l JOIN events r ON l.user_id = r.user_id
  AND l.event_type = '{IJ_TYPES[0]}' AND r.event_type = '{IJ_TYPES[1]}'
  AND epoch_us(r.ts) - epoch_us(l.ts) BETWEEN 0 AND {IJ_WITHIN_US}
ORDER BY kind, user_id, start_event_id, end_event_id
"""

SQL_RESPONSE_LATENCY = f"""
WITH t AS ({_T}),
o AS (SELECT conv_id, role, ts,
        lead(role) OVER w AS r1, lead(ts) OVER w AS ts1
      FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY ts, turn_uid))
SELECT conv_id, count(*) AS n_pairs,
  round(sum(epoch_us(ts1) - epoch_us(ts))::DOUBLE / count(*), 6)
    AS mean_delay_us,
  max(epoch_us(ts1) - epoch_us(ts)) AS max_delay_us
FROM o WHERE role = 'user' AND r1 = 'assistant'
GROUP BY 1 ORDER BY 1
"""

SQL_WINDOW_TOPK_CONVS = f"""
WITH t AS ({_T}),
agg AS (SELECT make_timestamp((epoch_us(ts) // {SIZE_US}) * {SIZE_US})
          AS window_start, conv_id, count(*) AS n_rows
        FROM t GROUP BY 1, 2),
r AS (SELECT window_start, conv_id, n_rows,
        row_number() OVER (PARTITION BY window_start
                           ORDER BY n_rows DESC, conv_id) AS rank
      FROM agg)
SELECT window_start, conv_id, n_rows, rank FROM r WHERE rank <= 3
ORDER BY window_start, rank
"""

SQL_HASH_JOIN_ENRICH = f"""
WITH t AS ({_T}),
p AS (SELECT conv_id, count(*) AS conv_turns, min(ts) AS first_ts
      FROM t GROUP BY 1)
SELECT t.conv_id, t.turn_uid, t.ts, p.conv_turns, p.first_ts
FROM t JOIN p USING (conv_id)
ORDER BY conv_id, turn_uid
"""

LM_TRAIN_MOD = 10

SQL_LM_QUALITY_SCORE = f"""
WITH g AS (
  SELECT doc_id, substr(text, i, 2) AS bg, substr(text, i, 1) AS c1
  FROM documents,
  LATERAL (SELECT unnest(generate_series(1, length(text) - 1)) AS i)
  WHERE length(text) >= 2),
tb AS (SELECT bg, count(*) AS c FROM g
       WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
tc AS (SELECT c1, count(*) AS c FROM g
       WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
v AS (SELECT count(*) AS v FROM tc),
s AS (SELECT g.doc_id,
        ln((coalesce(tb.c, 0) + 1)::DOUBLE
           / (coalesce(tc.c, 0) + (SELECT v FROM v))) AS lp
      FROM g LEFT JOIN tb USING (bg) LEFT JOIN tc USING (c1)),
sc AS (SELECT doc_id, count(*) AS n_bigrams,
         round(avg(lp), 6) + 0.0 AS lm_score FROM s GROUP BY 1)
SELECT d.doc_id, coalesce(sc.n_bigrams, 0)::BIGINT AS n_bigrams,
  coalesce(sc.lm_score, 0.0) + 0.0 AS lm_score
FROM documents d LEFT JOIN sc USING (doc_id) ORDER BY doc_id
"""

PACK_BUDGET_TOKENS = 512

SQL_PACK_DOCUMENTS = f"""
WITH c AS (SELECT doc_id,
  len(regexp_extract_all(text, '[A-Za-z0-9_]+'))::BIGINT AS n_tokens
  FROM documents)
SELECT doc_id, n_tokens,
  ((sum(n_tokens) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
    - n_tokens) // {PACK_BUDGET_TOKENS})::BIGINT AS pack_id
FROM c ORDER BY doc_id
"""

N_SEM_CLUSTERS = 8

SQL_SEMANTIC_CLUSTERS = f"""
WITH c AS (SELECT embedding AS ce,
             row_number() OVER (ORDER BY vec_id) - 1 AS cluster
           FROM embeddings ORDER BY vec_id LIMIT {N_SEM_CLUSTERS}),
s AS (SELECT e.vec_id, c.cluster,
        list_cosine_similarity(e.embedding, c.ce) AS cs
      FROM embeddings e CROSS JOIN c)
SELECT vec_id, cluster FROM (
  SELECT vec_id, cluster,
    row_number() OVER (PARTITION BY vec_id ORDER BY cs DESC, cluster) AS rn
  FROM s) WHERE rn = 1 ORDER BY vec_id
"""

