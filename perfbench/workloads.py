"""The three workloads: what each client sends, and what must come back.

Every prompt is generated here from the workload seed; the daemon only
ever sees the text. Each client owns a disjoint set of agents (the
scheduler refuses two in-flight requests for one agent). A turn names
its agent, its prompt, and the verdict and reused-token count that the
prefix matcher must answer, so the load generator can check every
``submit`` response.

Sizes are fixed token counts, so a seed changes the text but not the
amount of work. The synthetic engine tokenizes 4 characters per token
and decodes 4-character tokens, so every prompt and transcript is a
whole number of tokens.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

TOKEN_CHARS = 4
CLIENTS = 2
ENGINE_SEED = 0
MIB = 2**20

_ALPHABET = "abcdefghijklmnopqrstuvwxyz .,"


def random_text(rng: random.Random, tokens: int, first: str = "") -> str:
    """tokens * TOKEN_CHARS characters; ``first`` pins the first character."""
    body = "".join(rng.choices(_ALPHABET, k=tokens * TOKEN_CHARS - len(first)))
    return first + body


def prompt_tokens(text: str) -> int:
    return len(text) // TOKEN_CHARS


# -- reference tokens ----------------------------------------------------------

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def reference_token(agent_id: str, position: int, seed: int = ENGINE_SEED) -> int:
    """The token the synthetic engine must decode for (agent, position).

    Written independently of agentkv from the engine's documented rule,
    so a cache that loses or repeats a position shows as a wrong token.
    """
    agent = int.from_bytes(
        hashlib.blake2b(agent_id.encode("utf-8"), digest_size=8).digest(), "little"
    )
    mixed = _splitmix64(seed ^ agent ^ ((position << 16) & _M64) ^ 0x7045)
    return mixed % 50_257


def token_text(token_id: int) -> str:
    return f"w{token_id % 1000:03d}"


# -- schedules -----------------------------------------------------------------


@dataclass(frozen=True)
class Turn:
    agent: str
    prompt: str
    max_tokens: int
    verdict: str
    reuse_tokens: int


@dataclass
class Workload:
    name: str
    budget_bytes: int
    # each request's max_tokens is drawn from this inclusive range, so turns
    # end at varying steps and the two clients cannot lock into one phase
    # (with fixed sizes the closed loop settles into one of several
    # interleavings, decided by sub-millisecond races, and the run-to-run
    # spread becomes the spread between those patterns)
    max_tokens: tuple[int, int]
    # the first count_window requests of each client give the exact counts
    # (reuse share, verdicts, prefill tokens, token digest), so they repeat
    # exactly for a seed whatever the run length
    count_window: int
    restart_check: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decode-long",
            budget_bytes=1024 * MIB,
            max_tokens=(6, 18),
            count_window=4,
        ),
        Workload(
            name="prefill-cold",
            budget_bytes=1024 * MIB,
            max_tokens=(2, 6),
            count_window=6,
        ),
        Workload(
            name="multiturn-evict",
            # llama31-8b keeps 36 KiB of quantized KV per token, so 96 MiB is
            # about 3 agents at their largest (920 tokens) and 5 at 512
            budget_bytes=96 * MIB,
            max_tokens=(12, 20),
            count_window=6,
            restart_check=True,
        ),
    )
}

# decode-long: one agent per client, primed to unequal contexts so merge pads
DECODE_CONTEXTS = (1536, 1024)
# prefill-cold: prompt sizes, drawn per request like max_tokens. Each fits
# one 512-token chunk, which keeps about 50 requests in a 30 s run; a
# client's chunk still alternates with the other client's decode steps.
PREFILL_SIZES = tuple(range(128, 385, 32))
PREFILL_AGENTS = 2
PREFILL_PRIME = 64
# multiturn-evict: three agents per client. A turn that would take an agent
# past EVICT_MAX tokens extends its first turn again instead of the whole
# transcript (still EXTEND: the matcher keeps the first turn's whole blocks
# while at least half the transcript is shared). So an agent stays between
# 512 and 920 tokens and the working set does not grow with the run length.
EVICT_AGENTS = 3
EVICT_FIRST_TURN = 512
EVICT_MESSAGE = 128
EVICT_MAX = 2 * EVICT_FIRST_TURN


@dataclass
class Schedule:
    """The turns of one client, drawn from (workload, seed, client)."""

    workload: Workload
    seed: int
    client: int
    turn: int = 0
    rng: random.Random = field(init=False)
    first_transcript: dict[str, str] = field(default_factory=dict)
    _bags: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.rng = random.Random(f"{self.workload.name}/{self.seed}/{self.client}")

    def _draw(self, key: str, values: tuple[int, ...] | range) -> int:
        """Draw without replacement, refilling in a seeded order when empty.

        Every run of a given length then sees nearly the same multiset of
        sizes, so throughput does not depend on which values a seed drew.
        """
        bag = self._bags.get(key)
        if not bag:
            bag = self._bags[key] = list(values)
            self.rng.shuffle(bag)
        return bag.pop()

    def agents(self) -> list[str]:
        tag = {"decode-long": "dl", "prefill-cold": "pc", "multiturn-evict": "me"}
        count = {"decode-long": 1, "prefill-cold": PREFILL_AGENTS,
                 "multiturn-evict": EVICT_AGENTS}[self.workload.name]
        prefix = tag[self.workload.name]
        return [f"{prefix}-s{self.seed}-c{self.client}-a{j}" for j in range(count)]

    def prime(self) -> list[tuple[str, str]]:
        """(agent, prompt) pairs that set up this client's agents; 1 token each."""
        name = self.workload.name
        if name == "decode-long":
            size = DECODE_CONTEXTS[self.client % len(DECODE_CONTEXTS)] - 1
            return [(a, random_text(self.rng, size)) for a in self.agents()]
        if name == "prefill-cold":
            return [(a, random_text(self.rng, PREFILL_PRIME, first="P"))
                    for a in self.agents()]
        return [(a, random_text(self.rng, EVICT_FIRST_TURN - 1)) for a in self.agents()]

    def next(self, transcripts: dict[str, str]) -> Turn:
        """The next turn, given each agent's transcript so far."""
        t = self.turn
        self.turn += 1
        agents = self.agents()
        agent = agents[t % len(agents)]
        transcript = transcripts[agent]
        name = self.workload.name
        low, high = self.workload.max_tokens
        max_tokens = self._draw("max_tokens", range(low, high + 1))
        if name == "decode-long":
            return Turn(agent, transcript, max_tokens, "exact", prompt_tokens(transcript))
        if name == "prefill-cold":
            # an agent's consecutive prompts start with different characters,
            # so the matcher can never find a shared prefix
            first = "AB"[(t // PREFILL_AGENTS) % 2]
            prompt = random_text(self.rng, self._draw("size", PREFILL_SIZES), first=first)
            return Turn(agent, prompt, max_tokens, "diverge", 0)
        self.first_transcript.setdefault(agent, transcript)
        message = random_text(self.rng, EVICT_MESSAGE)
        if prompt_tokens(transcript) + EVICT_MESSAGE + max_tokens > EVICT_MAX:
            base = self.first_transcript[agent]
            return Turn(agent, base + message, max_tokens, "extend", prompt_tokens(base))
        return Turn(agent, transcript + message, max_tokens, "extend",
                    prompt_tokens(transcript))
