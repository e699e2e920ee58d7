"""Permutation helpers shared by the element-level oracles of several test files."""


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given in one-line notation on 0..n-1."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts))
