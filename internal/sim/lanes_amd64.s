#include "textflag.h"

// The addLanes kernel: for i ascending, add lw[i] to capBuf[j] for
// every bit j set in tw[i]. Every vector add puts the bin first and the
// load second, as the scalar `capBuf[j] += load` does.

// func addLanesAVX512(capBuf *[64]float64, tw []uint64, lw []float64)
//
// Z0–Z7 hold bins 0–7, 8–15, …, 56–63 for the whole list. Per pair, Z8
// is the load in all eight lanes, KMOVW moves byte k of the word (AX,
// shifted down 8 bits at a time) into a mask register, and the
// merge-masked VADDPD adds the load to the bins of Zk whose bits are
// set and leaves the other bins' bits as they were.
TEXT ·addLanesAVX512(SB), NOSPLIT, $0-56
	MOVQ  capBuf+0(FP), DI
	MOVQ  tw_base+8(FP), SI
	MOVQ  tw_len+16(FP), CX
	MOVQ  lw_base+32(FP), DX
	TESTQ CX, CX
	JZ    done512

	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7

loop512:
	MOVQ         (SI), AX
	VBROADCASTSD (DX), Z8
	KMOVW        AX, K1
	SHRQ         $8, AX
	VADDPD       Z8, Z0, K1, Z0
	KMOVW        AX, K2
	SHRQ         $8, AX
	VADDPD       Z8, Z1, K2, Z1
	KMOVW        AX, K3
	SHRQ         $8, AX
	VADDPD       Z8, Z2, K3, Z2
	KMOVW        AX, K4
	SHRQ         $8, AX
	VADDPD       Z8, Z3, K4, Z3
	KMOVW        AX, K5
	SHRQ         $8, AX
	VADDPD       Z8, Z4, K5, Z4
	KMOVW        AX, K6
	SHRQ         $8, AX
	VADDPD       Z8, Z5, K6, Z5
	KMOVW        AX, K7
	SHRQ         $8, AX
	VADDPD       Z8, Z6, K7, Z6
	KMOVW        AX, K1
	VADDPD       Z8, Z7, K1, Z7
	ADDQ         $8, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          loop512

	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VZEROUPPER

done512:
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
